"""Figure 6: register file cache versus single-banked with one bypass level.

Per-benchmark IPC of the best register-file-cache configuration
(non-bypass caching + prefetch-first-pair) against the 1-cycle and
2-cycle single-banked register files, all three with the same bypass
complexity (a single level) and unlimited ports.  Expected shape: the
register file cache sits between the two, clearly ahead of the 2-cycle
design (more so for the integer codes) and below the ideal 1-cycle one.
"""

from __future__ import annotations

from repro.analysis.metrics import percent_change
from repro.analysis.tables import format_series
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    RegisterFileCacheFactory,
    SimulationCache,
    one_cycle_factory,
    suite_points,
    two_cycle_one_bypass_factory,
    with_hmean,
)


def _architectures() -> tuple:
    return (
        ("1-cycle", one_cycle_factory(), "1-cycle"),
        ("non-bypass caching + prefetch-first-pair",
         RegisterFileCacheFactory(), "rfc/non-bypass/prefetch-first-pair"),
        ("2-cycle", two_cycle_one_bypass_factory(), "2-cycle-1byp"),
    )


def plan(settings: ExperimentSettings) -> list:
    """Simulation points Figure 6 needs (for the parallel scheduler)."""
    points: list = []
    for _name, factory, key in _architectures():
        points += suite_points(settings, ("int", "fp"), factory, key)
    return points


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Reproduce Figure 6."""
    architectures = _architectures()

    data: dict[str, dict] = {}
    sections = []
    for suite, label in settings.active_suite_labels():
        series = {}
        for name, factory, key in architectures:
            series[name] = with_hmean(cache.suite_ipcs(suite, factory, key))
        data[label] = series
        rfc = series["non-bypass caching + prefetch-first-pair"]["Hmean"]
        one = series["1-cycle"]["Hmean"]
        two = series["2-cycle"]["Hmean"]
        summary = (
            f"register file cache vs 1-cycle: {percent_change(rfc, one):+.1f}% IPC; "
            f"vs 2-cycle/1-bypass: {percent_change(rfc, two):+.1f}% IPC"
        )
        data[label + "_summary"] = {"vs_one_cycle_pct": percent_change(rfc, one),
                                    "vs_two_cycle_pct": percent_change(rfc, two)}
        sections.append(format_series(series, title=f"{label} IPC — {summary}"))

    return ExperimentResult(
        name="Figure 6",
        title="Register file cache vs single-banked files with a single bypass level",
        body="\n\n".join(sections),
        data=data,
    )
