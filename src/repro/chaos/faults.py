"""Seeded, deterministic fault specifications and the injector.

A :class:`Fault` names a seam, an action, and a *window* of matching
calls it fires on; a :class:`FaultInjector` owns a list of faults and
counts every seam call so that, for a given fault list, exactly the same
calls fail in exactly the same way on every run.

Actions fall in two groups:

* **raising** — ``enospc`` (``OSError(ENOSPC)``), ``oserror`` (generic
  ``OSError`` with a configurable errno) and ``crash``
  (:class:`ChaosFault`, a :class:`~repro.errors.ReproError`, so the
  service attributes it as a structured ``execution_error``).  These
  raise out of :meth:`FaultInjector.fire` into the production call.
* **advisory** — ``delay`` / ``hang`` sleep for ``delay_s`` seconds and
  return ``None``; ``drop`` and ``reset`` return the action string and
  the call site interprets it (the HTTP seam closes or resets the
  connection).  ``hang`` is a bounded stall, long relative to the
  scenario's deadlines/lease TTLs but never infinite, so a buggy
  resilience layer fails the scenario instead of wedging the harness.

Call counting is per seam name, under a lock (the HTTP seam fires from
server threads).  ``at`` is 1-based: ``Fault(seam="storage.append",
action="enospc", at=3)`` fires on the third append only; ``count=None``
keeps firing for every matching call from ``at`` onward (how ENOSPC
stays stuck until the scenario ends).
"""

from __future__ import annotations

import errno as _errno
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError


class ChaosFault(ReproError):
    """An injected worker crash — attributed, never silent."""


#: Actions that raise out of the seam into production code.
RAISING_ACTIONS = ("enospc", "oserror", "crash")
#: Actions the call site interprets from fire()'s return value.
ADVISORY_ACTIONS = ("delay", "hang", "drop", "reset")


@dataclass
class Fault:
    """One injected failure: *what* goes wrong, *where*, and *when*."""

    seam: str
    action: str
    #: 1-based index of the first matching seam call that fires.
    at: int = 1
    #: How many consecutive matching calls fire; ``None`` = forever.
    count: Optional[int] = 1
    #: Sleep length for ``delay`` / ``hang`` actions, seconds.
    delay_s: float = 0.0
    #: errno for the ``oserror`` action (``enospc`` hardwires ENOSPC).
    errno_code: int = _errno.EIO
    message: str = "injected fault"
    #: Optional context-equality filter, e.g. ``{"route": "/jobs"}``:
    #: the fault only matches calls whose ``fire(**ctx)`` context
    #: contains every listed key with an equal value.
    match: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action not in RAISING_ACTIONS + ADVISORY_ACTIONS:
            raise ValueError(f"unknown fault action: {self.action!r}")
        if self.at < 1:
            raise ValueError("fault 'at' is 1-based and must be >= 1")
        if self.count is not None and self.count < 1:
            raise ValueError("fault 'count' must be >= 1 (None = forever)")
        if self.delay_s < 0:
            raise ValueError("fault 'delay_s' must be >= 0")


class FaultInjector:
    """Deterministically applies a fault list to seam calls.

    The injector is installed process-globally via
    :func:`repro.chaos.seams.install`; production guards then route every
    seam call through :meth:`fire`.  The *schedule* of faults is fixed by
    the fault list itself, so two runs with the same faults are
    byte-identical in what they inject.
    """

    def __init__(self, faults: Optional[List[Fault]] = None):
        self.faults = list(faults or [])
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        #: Per-fault match counts, parallel to ``self.faults`` — a fault
        #: with ``match`` filters advances only on calls it could match.
        self._fault_calls: List[int] = [0] * len(self.faults)
        self.fired: List[Dict[str, Any]] = []

    def calls(self, seam: str) -> int:
        """How many times *seam* has fired so far."""
        with self._lock:
            return self._calls.get(seam, 0)

    def log(self) -> List[Dict[str, Any]]:
        """Copy of the injected-fault log (seam, action, call #, ctx)."""
        with self._lock:
            return list(self.fired)

    def fire(self, seam: str, **ctx: Any) -> Optional[str]:
        """Account one call at *seam*; inject the first matching fault.

        Returns ``None`` (no fault, or a sleep already served), or an
        advisory action string (``"drop"`` / ``"reset"``) for the call
        site to interpret.  Raising actions raise.
        """
        with self._lock:
            nth = self._calls.get(seam, 0) + 1
            self._calls[seam] = nth
            hit: Optional[Fault] = None
            for index, fault in enumerate(self.faults):
                if fault.seam != seam:
                    continue
                # Context-filtered faults keep their own call count so
                # "3rd POST /jobs" means what it says even when other
                # routes share the seam.
                if fault.match:
                    if any(ctx.get(key) != value
                           for key, value in fault.match.items()):
                        continue
                    self._fault_calls[index] += 1
                    local_nth = self._fault_calls[index]
                else:
                    local_nth = nth
                if hit is None and local_nth >= fault.at and (
                        fault.count is None
                        or local_nth < fault.at + fault.count):
                    hit = fault
            if hit is None:
                return None
            self.fired.append(
                {"seam": seam, "action": hit.action, "call": nth,
                 "ctx": dict(ctx)}
            )
        # Act outside the lock: sleeps and raises must not serialize
        # other seams.
        if hit.action == "enospc":
            raise OSError(_errno.ENOSPC, hit.message or "injected ENOSPC")
        if hit.action == "oserror":
            raise OSError(hit.errno_code, hit.message)
        if hit.action == "crash":
            raise ChaosFault(hit.message)
        if hit.action in ("delay", "hang"):
            time.sleep(hit.delay_s)
            return None
        return hit.action  # "drop" | "reset"
