"""Figure 1: IPC versus the number of physical registers.

The paper varies the number of physical registers from 48 to 256 (per
register class) on an 8-way processor with a 256-entry reorder buffer and
instruction queue and a 1-cycle register file, and plots the harmonic
mean IPC of SpecInt95 and SpecFP95.  The expected shape: IPC grows with
the register count and flattens beyond roughly 128 registers.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.tables import format_figure
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    SimulationCache,
    one_cycle_factory,
    suite_harmonic_mean,
)

#: Register counts swept by the paper.
REGISTER_COUNTS: tuple[int, ...] = (48, 64, 96, 128, 160, 192, 224, 256)


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
    register_counts: Sequence[int] = REGISTER_COUNTS,
) -> ExperimentResult:
    """Reproduce Figure 1."""
    factory = one_cycle_factory()

    labels = settings.active_suite_labels()
    series: dict[str, list[float]] = {label: [] for _suite, label in labels}
    per_benchmark: dict[int, dict[str, float]] = {}
    for count in register_counts:
        config = settings.processor_config(
            num_int_physical=count,
            num_fp_physical=count,
            instruction_window=256,
            rob_size=256,
        )
        merged: dict[str, float] = {}
        for suite, label in labels:
            ipcs = cache.suite_ipcs(suite, factory, f"1-cycle/{count}regs", config)
            merged.update(ipcs)
            series[label].append(suite_harmonic_mean(ipcs))
        per_benchmark[count] = merged

    body = format_figure(
        list(register_counts),
        series,
        title="Harmonic-mean IPC vs number of physical registers "
              "(1-cycle register file, 256-entry window/ROB)",
    )
    return ExperimentResult(
        name="Figure 1",
        title="IPC for a varying number of physical registers",
        body=body,
        data={"register_counts": list(register_counts), "series": series,
              "per_benchmark": per_benchmark},
    )
