"""Fetch/prefetch policies of the register file cache.

Both policies service *demand* fills: when an instruction has all its
operands ready but one of them lives only in the lowest bank, a fill is
requested over a free bus (the instruction then waits for the transfer).
The difference is whether values are additionally *prefetched*:

* **fetch-on-demand** — no prefetching; operands are brought up only when
  a ready instruction needs them.
* **prefetch-first-pair** — when an instruction issues, the *other*
  source operand of the first (oldest) instruction in the window that
  consumes its result is prefetched into the uppermost level, so that by
  the time the consumer becomes ready its second operand is already
  there.  This is the scheme proposed in Section 3 of the paper.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.execute.issue_queue import IssueQueue, IssueQueueEntry
    from repro.regfile.cache import RegisterFileCache


class FetchPolicy(ABC):
    """Decides when values are moved from the lowest to the uppermost bank."""

    name: str = "fetch-policy"

    def on_issue(
        self,
        regfile: "RegisterFileCache",
        entry: "IssueQueueEntry",
        cycle: int,
        window: "IssueQueue",
    ) -> None:
        """Hook called when ``entry`` is issued (prefetch opportunity)."""


class FetchOnDemand(FetchPolicy):
    """Only demand fills; no prefetching."""

    name = "fetch-on-demand"


class PrefetchFirstPair(FetchPolicy):
    """Prefetch the other operand of the first consumer of an issued result."""

    name = "prefetch-first-pair"

    def on_issue(
        self,
        regfile: "RegisterFileCache",
        entry: "IssueQueueEntry",
        cycle: int,
        window: "IssueQueue",
    ) -> None:
        dest = entry.dest
        if dest is None:
            return
        consumers = window.waiting_consumers_of(dest)
        if not consumers:
            return
        # Consumer lists are appended at dispatch, in program order, so the
        # first waiting consumer is the oldest.
        first = consumers[0]
        values = window.values
        reg_class = dest.reg_class
        for other in first.sources:
            # The renamer interns its physical registers, so identity is
            # equality here.
            if other is dest:
                continue
            if other.reg_class is not reg_class:
                # The other operand lives in the other register file (e.g. an
                # integer base address feeding an FP load); this register
                # file cannot prefetch it.
                continue
            state = values.get(other.uid)
            if state is None:
                continue
            if not state.written_back:
                continue  # still in flight; it will be cached or bypassed
            # A value already in the upper level is left alone:
            # ``request_fill`` returns at once, without side effects.
            regfile.request_fill(other, state, cycle, prefetch=True)


_POLICIES: dict[str, type[FetchPolicy]] = {
    FetchOnDemand.name: FetchOnDemand,
    PrefetchFirstPair.name: PrefetchFirstPair,
}


def fetch_policy_by_name(name: str) -> FetchPolicy:
    """Instantiate a fetch policy from its short name.

    Raises
    ------
    ConfigurationError
        If the name is unknown.
    """
    try:
        return _POLICIES[name]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown fetch policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from exc
