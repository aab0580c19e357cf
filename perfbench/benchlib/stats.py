"""Summary statistics the benchmark reports.

Two rules live here so the tests can pin them down:

* **the tail rule** — a tail figure is the highest percentile of a
  fixed ladder that still has at least :data:`TAIL_MIN_BEYOND` samples
  ranked above it, reported together with the percentile and the
  number of samples it rests on;
* **failure accounting** — a failed or refused operation counts in the
  failure share *and* as missing any latency limit: it enters the
  latency samples at the operation timeout.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Candidate tail percentiles in per-mille (p50 ... p99.9), lowest first.
TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)

#: Samples that must rank above a percentile before it may be the tail.
TAIL_MIN_BEYOND = 10

#: Outcome of an operation that produced its result.
OK = "ok"
#: Outcome of an operation the system accepted but did not complete.
FAILED = "failed"
#: Outcome of an operation the system refused to accept.
REFUSED = "refused"


@dataclass(frozen=True)
class Tail:
    """A tail figure and what it rests on."""

    value: float
    percentile: float
    samples: int
    #: Samples ranked above the reported one.
    beyond: int

    def describe(self) -> Dict[str, float]:
        return {"percentile": self.percentile, "samples": self.samples,
                "beyond": self.beyond}


def _rank(permille: int, count: int) -> int:
    """1-based nearest rank of a percentile, in exact integer arithmetic."""
    return max(1, -(-permille * count // 1000))


def tail(values: Sequence[float]) -> Tail:
    """The tail of ``values`` by the ladder rule (nearest rank).

    With fewer than ``2 * TAIL_MIN_BEYOND + 1`` samples no percentile
    qualifies; the median rank is reported then, and ``beyond`` shows
    how few samples rank above it.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail of an empty sample set")
    chosen = TAIL_LADDER_PERMILLE[0]
    for permille in TAIL_LADDER_PERMILLE:
        if count - _rank(permille, count) >= TAIL_MIN_BEYOND:
            chosen = permille
    rank = _rank(chosen, count)
    return Tail(value=ordered[rank - 1], percentile=chosen / 10,
                samples=count, beyond=count - rank)


@dataclass
class OpLog:
    """Latency and outcome of every caller-visible operation of a run."""

    #: Latency charged to an operation that failed or was refused.
    timeout_s: float
    outcomes: List[str] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)

    def record(self, latency_s: float, outcome: str = OK) -> None:
        if outcome not in (OK, FAILED, REFUSED):
            raise ValueError(f"unknown outcome {outcome!r}")
        self.outcomes.append(outcome)
        self.latencies_s.append(latency_s if outcome == OK else self.timeout_s)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        """Failed plus refused operations."""
        return sum(1 for outcome in self.outcomes if outcome != OK)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def p50_ms(self) -> float:
        return 1000.0 * statistics.median(self.latencies_s)

    def tail(self) -> Tail:
        """The tail in milliseconds."""
        result = tail(self.latencies_s)
        return Tail(1000.0 * result.value, result.percentile,
                    result.samples, result.beyond)
