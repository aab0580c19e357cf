"""Figure 5: caching and fetching policies of the register file cache.

Per-benchmark IPC (unlimited ports) of the four combinations of
{ready caching, non-bypass caching} × {fetch-on-demand,
prefetch-first-pair}.  The paper finds non-bypass caching slightly ahead
of ready caching and prefetch-first-pair helping a few programs.
"""

from __future__ import annotations

from repro.analysis.tables import format_series
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    SimulationCache,
    register_file_cache_factory,
    suite_points,
    with_hmean,
)

POLICY_COMBINATIONS = (
    ("ready caching + fetch-on-demand", "ready", "fetch-on-demand"),
    ("non-bypass caching + fetch-on-demand", "non-bypass", "fetch-on-demand"),
    ("ready caching + prefetch-first-pair", "ready", "prefetch-first-pair"),
    ("non-bypass caching + prefetch-first-pair", "non-bypass", "prefetch-first-pair"),
)


def plan(settings: ExperimentSettings) -> list:
    """Simulation points Figure 5 needs (for the parallel scheduler)."""
    points: list = []
    for _name, caching, fetch in POLICY_COMBINATIONS:
        factory = register_file_cache_factory(caching=caching, fetch=fetch)
        points += suite_points(settings, ("int", "fp"), factory,
                               f"rfc/{caching}/{fetch}")
    return points


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Reproduce Figure 5."""
    data: dict[str, dict[str, dict[str, float]]] = {}
    sections = []
    for suite, label in settings.active_suite_labels():
        series = {}
        for name, caching, fetch in POLICY_COMBINATIONS:
            factory = register_file_cache_factory(caching=caching, fetch=fetch)
            key = f"rfc/{caching}/{fetch}"
            series[name] = with_hmean(cache.suite_ipcs(suite, factory, key))
        data[label] = series
        sections.append(format_series(series, title=f"{label} IPC (register file cache)"))

    return ExperimentResult(
        name="Figure 5",
        title="IPC for different register file cache caching/fetching policies",
        body="\n\n".join(sections),
        data=data,
    )
