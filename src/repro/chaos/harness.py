"""Scenario execution: a live fleet, injected faults, checked invariants.

A scenario boots real service machinery — in-process
:class:`~repro.service.app.ServiceApp` instances behind real
``ThreadingHTTPServer`` sockets, talked to by the real
:class:`~repro.service.client.ServiceClient`, optionally joined by a
genuine ``python -m repro.service serve`` subprocess for kill tests —
injects faults through the seams, and then asserts the **global
invariants** of the robustness contract:

1. *No completed job is ever lost* — a job observed ``completed`` keeps
   its result.
2. *No point executes beyond single-flight accounting* — a completed
   job's ``executed`` never exceeds its ``unique`` point count.
3. *Every failure carries a structured cause* — a ``failed`` job has a
   non-empty ``error.code``, and scenarios additionally pin the set of
   causes they consider correct.
4. *No hangs* — every wait in the harness is bounded; a timeout is an
   invariant violation, not an exception.

Scenario outcomes are :class:`ScenarioResult` records; the CLI
(:mod:`repro.chaos.__main__`) renders them and exits non-zero if any
scenario reports a violation.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos import seams
from repro.chaos.faults import FaultInjector
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceUnderTest

#: Upper bound on any single scenario wait; hitting it is a violation.
DEFAULT_WAIT_S = 120.0


@dataclass
class ScenarioResult:
    """What one scenario did and whether the invariants held."""

    name: str
    seed: int
    ok: bool = True
    #: Invariant violations; any entry fails the scenario (and the run).
    violations: List[str] = field(default_factory=list)
    #: Informational observations (retry counts, who stole what).
    notes: List[str] = field(default_factory=list)
    faults_injected: int = 0
    duration_s: float = 0.0

    def violate(self, message: str) -> None:
        self.violations.append(message)
        self.ok = False

    def note(self, message: str) -> None:
        self.notes.append(message)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "notes": list(self.notes),
            "faults_injected": self.faults_injected,
            "duration_s": round(self.duration_s, 2),
        }


class scenario_env:
    """Context manager: temp cache tree + installed injector + cleanup.

    Everything a scenario allocates through :meth:`service` is stopped
    (drained) *before* the injector is uninstalled, so no seam ever
    fires half-disabled.
    """

    def __init__(self, injector: Optional[FaultInjector] = None) -> None:
        self.injector = injector
        self.services: List[ServiceUnderTest] = []
        self.root: Optional[str] = None

    def __enter__(self) -> "scenario_env":
        self.root = tempfile.mkdtemp(prefix="repro-chaos-")
        if self.injector is not None:
            seams.install(self.injector)
        return self

    def cache_dir(self, name: str = "cache") -> str:
        import os

        path = os.path.join(self.root, name)  # type: ignore[arg-type]
        os.makedirs(path, exist_ok=True)
        return path

    def service(self, cache_dir: Optional[str] = None,
                client_kwargs: Optional[dict] = None,
                **app_kwargs) -> ServiceUnderTest:
        sut = ServiceUnderTest(cache_dir=cache_dir,
                               client_kwargs=client_kwargs, **app_kwargs)
        self.services.append(sut)
        return sut

    def __exit__(self, *exc_info) -> None:
        for sut in self.services:
            try:
                sut.stop()
            except Exception:  # noqa: BLE001 - cleanup must not mask results
                pass
        seams.uninstall()
        if self.root:
            shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------
# invariant helpers
# ----------------------------------------------------------------------


def canonical_result_bytes(result_payload: dict) -> bytes:
    """The byte-identity form of a job result (order-independent JSON)."""
    return json.dumps(result_payload, sort_keys=True,
                      separators=(",", ":"), default=str).encode("utf-8")


def check_terminal_record(record: dict, result: ScenarioResult,
                          allowed_failures: Optional[List[str]] = None) -> None:
    """Assert the per-job invariants on a terminal job record."""
    state = record.get("state")
    job_id = record.get("id")
    if state == "completed":
        counters = record.get("counters") or {}
        executed = int(counters.get("executed", 0))
        unique = int(counters.get("unique",
                                  (record.get("points") or {}).get("unique", 0)))
        if executed > unique:
            result.violate(
                f"job {job_id}: executed {executed} > unique {unique} "
                f"(single-flight accounting broken)"
            )
    elif state == "failed":
        error = record.get("error") or {}
        code = error.get("code")
        if not code:
            result.violate(f"job {job_id}: failed without a structured cause")
        elif allowed_failures is not None and code not in allowed_failures:
            result.violate(
                f"job {job_id}: unexpected failure cause {code!r} "
                f"(allowed: {allowed_failures})"
            )
    else:
        result.violate(f"job {job_id}: not terminal (state {state!r})")


def watch_bounded(client: ServiceClient, job_id: str,
                  result: ScenarioResult,
                  timeout: float = DEFAULT_WAIT_S) -> Optional[dict]:
    """Watch a job to a terminal state; a timeout is a hang violation."""
    try:
        return client.watch(job_id, interval=0.05, timeout=timeout,
                            unreachable_timeout=timeout)
    except ServiceError as error:
        if error.code == "watch_timeout":
            result.violate(f"job {job_id}: hang — not terminal "
                           f"after {timeout:.0f}s")
        else:
            result.violate(f"job {job_id}: watch failed: {error}")
        return None


def check_event_timeline(cache_dir: str, result: ScenarioResult,
                         source: Optional[str] = None) -> None:
    """Assert the telemetry span timeline under ``cache_dir`` is whole.

    After a drained (non-kill) scenario every ``span_start`` must have a
    matching ``span_end`` — an unfinished span means an operation
    crashed or leaked past its guard.  Kill scenarios skip this check:
    a SIGKILL legitimately tears spans mid-flight.
    """
    from repro.obs.events import read_events, unfinished_spans
    from repro.service.app import EVENTS_SUBDIR
    import os

    events_dir = os.path.join(cache_dir, EVENTS_SUBDIR)

    def load():
        loaded = read_events(events_dir)
        if source is not None:
            loaded = [e for e in loaded if e.get("source") == source]
        return loaded

    # The client can observe a terminal job a beat before the final
    # span_end flushes; give the log a bounded moment to settle.
    events = load()
    deadline = time.monotonic() + 10.0
    while (not events or unfinished_spans(events)) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
        events = load()
    if not events:
        result.violate(f"no telemetry events under {cache_dir!r} — "
                       f"the event log never wrote")
        return
    dangling = unfinished_spans(events)
    for start in dangling:
        result.violate(
            f"span {start.get('span')!r} (span_id {start.get('span_id')}, "
            f"job {start.get('job_id')}) started but never ended"
        )
    spans = sum(1 for e in events if e.get("kind") == "span_end")
    result.note(f"timeline: {len(events)} events, {spans} complete spans, "
                f"{len(dangling)} dangling")


def wait_until(predicate, timeout: float, interval: float = 0.05) -> bool:
    """Poll ``predicate`` until true or ``timeout``; returns the verdict."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


# ----------------------------------------------------------------------
# matrix runner
# ----------------------------------------------------------------------


def run_matrix(names: List[str], seed: int,
               quick: bool = False,
               progress=None) -> List[ScenarioResult]:
    """Run the named scenarios in order; never raises on a failure."""
    from repro.chaos.scenarios import SCENARIOS

    results: List[ScenarioResult] = []
    for name in names:
        func = SCENARIOS[name]
        if progress is not None:
            progress(f"chaos: running {name} (seed {seed})")
        started = time.monotonic()
        result = ScenarioResult(name=name, seed=seed)
        try:
            func(result, seed=seed, quick=quick)
        except Exception as error:  # noqa: BLE001 - a crash is a violation
            result.violate(
                f"scenario crashed: {type(error).__name__}: {error}"
            )
            seams.uninstall()  # belt and braces if the env didn't unwind
        result.duration_s = time.monotonic() - started
        if progress is not None:
            status = "ok" if result.ok else "FAIL"
            progress(f"chaos: {name}: {status} "
                     f"({result.duration_s:.1f}s, "
                     f"{result.faults_injected} faults)")
        results.append(result)
    return results


def summarize(results: List[ScenarioResult]) -> Dict[str, object]:
    """Machine-readable run summary (the --json payload)."""
    return {
        "scenarios": [result.to_dict() for result in results],
        "total": len(results),
        "failed": sum(1 for result in results if not result.ok),
        "violations": [
            f"{result.name}: {violation}"
            for result in results
            for violation in result.violations
        ],
    }
