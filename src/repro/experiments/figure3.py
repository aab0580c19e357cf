"""Figure 3: how many registers actually hold values that are needed.

For every cycle the paper counts the registers containing a value that is
a source operand of (a) at least one unexecuted instruction in the window
("Value & Instruction"), and (b) an unexecuted instruction whose operands
are all ready ("Value & Ready Instruction"), and plots the cumulative
distribution averaged over each suite.  The punchline: a handful of
registers suffice the vast majority of the time, which is what makes a
small upper-level bank viable.
"""

from __future__ import annotations

from repro.analysis.distributions import average_cdfs, percentile_from_cdf
from repro.analysis.tables import format_figure
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    SimulationCache,
    one_cycle_factory,
)

MAX_REGISTERS = 32


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Reproduce Figure 3."""
    factory = one_cycle_factory()

    sections = []
    data: dict[str, dict[str, list[float]]] = {}
    for suite, label in settings.active_suite_labels():
        config = settings.processor_config(collect_occupancy=True)
        needed_cdfs = []
        ready_cdfs = []
        for benchmark in settings.suite(suite):
            stats = cache.stats(benchmark, factory, "1-cycle/occupancy", config)
            needed_cdfs.append(stats.occupancy_cdf("needed", MAX_REGISTERS))
            ready_cdfs.append(stats.occupancy_cdf("ready", MAX_REGISTERS))
        needed = average_cdfs(needed_cdfs)
        ready = average_cdfs(ready_cdfs)
        data[label] = {"value_and_instruction": needed, "value_and_ready": ready}
        sections.append(
            format_figure(
                list(range(MAX_REGISTERS + 1)),
                {"Value & Instruction": needed, "Value & Ready Instruction": ready},
                title=(
                    f"{label}: cumulative % of cycles vs number of registers "
                    f"(90% covered by {percentile_from_cdf(needed, 90)} / "
                    f"{percentile_from_cdf(ready, 90)} registers)"
                ),
                value_format="{:.1f}",
            )
        )

    return ExperimentResult(
        name="Figure 3",
        title="Cumulative distribution of the number of registers holding needed values",
        body="\n\n".join(sections),
        data=data,
    )
