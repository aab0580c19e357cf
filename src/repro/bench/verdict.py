"""The verdict on one end-to-end metric: a change's runs against its base's.

Both sides are measured in one session, alternating, so the host's
drift hits both alike.  A metric is judged on medians, in its
``better`` direction, against its ``BENCHMARK.json`` bound:

* ``ok`` — the change's median is not worse than the base's by more
  than the bound;
* ``regressed`` — it is, and the evidence resolves it: the base's own
  spread (interquartile range over median) is within the bound, or
  every change run is worse than every base run;
* ``unresolved`` — it is, but the base alone spreads wider than the
  bound and the runs overlap, so the runs cannot tell;
* ``missing`` — a side has no successful run to judge.

Only ``regressed`` and ``missing`` fail the bench.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

OK = "ok"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"
MISSING = "missing"


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median; 0 for fewer than two values.

    The quartiles are ``statistics.quantiles``' default (exclusive)
    ones, which for a handful of runs lie at or near the extremes, so a
    small sample does not understate its spread.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def judge(base: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Dict[str, object]:
    """The verdict on one metric, with the figures it rests on.

    ``worse_by`` is the change's median relative to the base's, signed
    so that positive is worse: ``+0.3`` is 30% slower on a lower-is-
    better metric, or 30% less on a higher-is-better one.
    """
    if not base or not change:
        return {"status": MISSING}
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    difference = sign * (change_median - base_median)
    if base_median:
        worse_by = difference / abs(base_median)
    else:
        worse_by = 0.0 if not difference else math.copysign(math.inf, difference)
    base_spread = spread(base)
    if worse_by <= bound:
        status = OK
    elif base_spread <= bound or min(sign * c for c in change) > max(sign * b for b in base):
        status = REGRESSED
    else:
        status = UNRESOLVED
    return {
        "status": status,
        "base_median": base_median,
        "change_median": change_median,
        "worse_by": round(worse_by, 4),
        "base_spread": round(base_spread, 4),
    }
