"""Section 3 statistic: how many times register values are read.

The caching policies are motivated by the observation that most register
values are read at most once (the paper reports 88% for SpecInt95 and 85%
for SpecFP95).  This experiment measures the value read-count
distribution on the simulated workloads.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.tables import format_table
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    SimulationCache,
    one_cycle_factory,
    suite_points,
)


def plan(settings: ExperimentSettings) -> list:
    """Simulation points the value-reuse statistic needs."""
    return suite_points(settings, ("int", "fp"), one_cycle_factory(), "1-cycle")


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Measure the value read-count distribution per suite."""
    factory = one_cycle_factory()

    rows = []
    data: dict = {}
    for suite, label in settings.active_suite_labels():
        combined: Counter = Counter()
        for benchmark in settings.suite(suite):
            stats = cache.stats(benchmark, factory, "1-cycle")
            combined.update(stats.value_read_distribution)
        total = sum(combined.values()) or 1
        never = combined.get(0, 0) / total
        once = combined.get(1, 0) / total
        twice = combined.get(2, 0) / total
        more = 1.0 - never - once - twice
        data[label] = {
            "never_read": never,
            "read_once": once,
            "read_twice": twice,
            "read_three_plus": more,
            "read_at_most_once": never + once,
        }
        rows.append(
            (label, f"{100 * never:.1f}%", f"{100 * once:.1f}%",
             f"{100 * twice:.1f}%", f"{100 * more:.1f}%",
             f"{100 * (never + once):.1f}%")
        )

    body = format_table(
        ("suite", "never read", "read once", "read twice", "read 3+", "at most once"),
        rows,
        title="Register value read counts (paper: 88% / 85% read at most once)",
    )
    return ExperimentResult(
        name="Value reuse (Section 3)",
        title="Fraction of register values read at most once",
        body=body,
        data=data,
    )
