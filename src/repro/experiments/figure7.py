"""Figure 7: register file cache versus a 2-cycle file with full bypass.

The 2-cycle single-banked file with two bypass levels is slightly faster
than the register file cache, but needs twice the bypass network; the
paper reports the cache within 8% (SpecInt95) / 2% (SpecFP95) of it.
"""

from __future__ import annotations

from repro.analysis.metrics import percent_change
from repro.analysis.tables import format_series
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    RegisterFileCacheFactory,
    SimulationCache,
    two_cycle_full_bypass_factory,
    with_hmean,
)


def _architectures() -> tuple:
    return (
        ("non-bypass caching + prefetch-first-pair",
         RegisterFileCacheFactory(), "rfc/non-bypass/prefetch-first-pair"),
        ("2-cycle (full bypass)", two_cycle_full_bypass_factory(), "2-cycle-full"),
    )


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Reproduce Figure 7."""
    architectures = _architectures()

    data: dict[str, dict] = {}
    sections = []
    for suite, label in settings.active_suite_labels():
        series = {}
        for name, factory, key in architectures:
            series[name] = with_hmean(cache.suite_ipcs(suite, factory, key))
        data[label] = series
        rfc = series["non-bypass caching + prefetch-first-pair"]["Hmean"]
        full = series["2-cycle (full bypass)"]["Hmean"]
        data[label + "_summary"] = {"vs_two_cycle_full_pct": percent_change(rfc, full)}
        sections.append(
            format_series(
                series,
                title=(
                    f"{label} IPC — register file cache vs 2-cycle/full bypass: "
                    f"{percent_change(rfc, full):+.1f}%"
                ),
            )
        )

    return ExperimentResult(
        name="Figure 7",
        title="Register file cache vs a single bank with full bypass",
        body="\n\n".join(sections),
        data=data,
    )
