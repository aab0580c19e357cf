"""Systematic interval sampling with confidence intervals.

SMARTS/SimPoint-style sampling over a recorded
:class:`~repro.trace.schema.DecodedTrace`: short detailed windows at a
fixed stride, cheap functional fast-forward between them, and an IPC
estimate with error bars instead of a point value.  Exact simulation
remains the default everywhere; sampling is opt-in per point via a
:class:`SamplingSpec` (``--sample stride:window[:warmup]`` on the
experiment runner, ``"sample"`` on service job submissions).

Protocol invariants the rest of the stack relies on:

* **Confidence-interval semantics** — the reported interval is a
  two-sided Student-t interval over the *per-window IPCs*:
  ``mean ± t(confidence, n-1) · s / sqrt(n)`` with the sample standard
  deviation (``ddof=1``).  Windows are equal-size by construction, so
  the unweighted mean is the systematic-sampling estimator.  Supported
  confidence levels are exactly the committed t-tables (0.90, 0.95,
  0.99).  The accuracy contract — validated by ``repro.validate
  --sampled-accuracy`` over the 10-architecture differential matrix —
  is that the interval contains the full-run IPC.
* **Window placement** — window ``k`` targets offset ``k · stride`` and
  snaps forward to the next fetch-event boundary (fetch groups are
  indivisible); a spec that places fewer than two windows is rejected
  (:class:`~repro.errors.ConfigurationError`), never silently degraded.
* **Warm-up neutrality** — functional warm-up touches rename, the
  scoreboard, the register-file model and the data cache only, at
  negative cycle numbers, and must not contribute to any window
  statistic (data-cache counters are zeroed after warming; value-read
  accounting is skipped on warm releases).

``python -m repro.sampling --list`` prints the knobs and their valid
ranges; ``--spec STRIDE:WINDOW[:WARMUP]`` validates a spec offline.
"""

from repro.sampling.engine import (
    confidence_interval,
    functional_warmup,
    sampled_simulate,
    t_critical,
    window_plan,
)
from repro.sampling.spec import (
    SUPPORTED_CONFIDENCE_LEVELS,
    SamplingSpec,
    parse_sampling,
)

__all__ = [
    "SUPPORTED_CONFIDENCE_LEVELS",
    "SamplingSpec",
    "confidence_interval",
    "functional_warmup",
    "parse_sampling",
    "sampled_simulate",
    "t_critical",
    "window_plan",
]
