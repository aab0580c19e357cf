"""Table 2 and Figure 9: factoring in the register file access time.

Table 2 fixes four roughly-equal-area configurations C1–C4 and gives, for
each architecture, its port counts, its area and the processor cycle time
its register file imposes (the 2-cycle file is optimistically assumed to
pipeline into two equal stages).  Figure 9 then reports *instruction
throughput* (IPC divided by cycle time), relative to the 1-cycle
single-banked file at C1.  This is where the register file cache wins
big: its cycle time is set by the small upper bank.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.metrics import instruction_throughput
from repro.analysis.tables import format_series, format_table
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    SimulationCache,
    one_cycle_factory,
    register_file_cache_factory,
    suite_harmonic_mean,
    suite_points,
    two_cycle_one_bypass_factory,
)
from repro.hwmodel.configurations import (
    TABLE2_CONFIGURATIONS,
    ArchitectureConfiguration,
    PAPER_TABLE2,
)


def _table2_rows() -> list[tuple]:
    rows = []
    for configuration in TABLE2_CONFIGURATIONS:
        single_area = configuration.single_banked_area_units()
        single_access = configuration.single_banked_access_time_ns()
        cache_geometry = configuration.cache_geometry
        paper = PAPER_TABLE2[configuration.name]
        rows.append(
            (
                configuration.name,
                f"{configuration.single_read_ports}R/{configuration.single_write_ports}W",
                round(single_area),
                round(paper["one-cycle"][0]),
                round(single_access, 2),
                round(single_access / 2, 2),
                (
                    f"{cache_geometry.upper_read_ports}R/"
                    f"{cache_geometry.upper_write_ports}W+{cache_geometry.buses}B"
                ),
                round(cache_geometry.area_units()),
                round(paper["cache"][0]),
                round(cache_geometry.cycle_time_ns(), 2),
            )
        )
    return rows


def _configuration_architectures(
    configuration: ArchitectureConfiguration,
) -> tuple:
    """(factory, key) of the three architectures at one Table 2 config."""
    reads = configuration.single_read_ports
    writes = configuration.single_write_ports
    cache_geometry = configuration.cache_geometry
    return (
        (one_cycle_factory(read_ports=reads, write_ports=writes),
         f"1-cycle/{reads}R{writes}W"),
        (two_cycle_one_bypass_factory(read_ports=reads, write_ports=writes),
         f"2-cycle-1byp/{reads}R{writes}W"),
        (register_file_cache_factory(
            upper_read_ports=cache_geometry.upper_read_ports,
            upper_write_ports=cache_geometry.upper_write_ports,
            lower_write_ports=cache_geometry.lower_write_ports,
            buses=cache_geometry.buses,
            lower_read_latency=cache_geometry.lower_read_latency_cycles(),
        ),
         (
             f"rfc/{cache_geometry.upper_read_ports}R"
             f"{cache_geometry.upper_write_ports}W{cache_geometry.buses}B"
         )),
    )


def plan(settings) -> list:
    """Simulation points Figure 9 / Table 2 need (parallel scheduler)."""
    points: list = []
    for configuration in TABLE2_CONFIGURATIONS:
        for factory, key in _configuration_architectures(configuration):
            points += suite_points(settings, ("int", "fp"), factory, key)
    return points


def _suite_throughputs(
    cache: SimulationCache,
    suite: str,
    configuration: ArchitectureConfiguration,
) -> Dict[str, float]:
    """Instruction throughput (inst/ns) of each architecture at one config."""
    cache_geometry = configuration.cache_geometry
    architectures = _configuration_architectures(configuration)

    one_cycle_ipc = suite_harmonic_mean(
        cache.suite_ipcs(suite, architectures[0][0], architectures[0][1])
    )
    two_cycle_ipc = suite_harmonic_mean(
        cache.suite_ipcs(suite, architectures[1][0], architectures[1][1])
    )
    cache_ipc = suite_harmonic_mean(
        cache.suite_ipcs(suite, architectures[2][0], architectures[2][1])
    )

    access_time = configuration.single_banked_access_time_ns()
    return {
        "1-cycle": instruction_throughput(one_cycle_ipc, access_time),
        "non-bypass caching + prefetch-first-pair": instruction_throughput(
            cache_ipc, cache_geometry.cycle_time_ns()
        ),
        "2-cycle, 1-bypass": instruction_throughput(two_cycle_ipc, access_time / 2.0),
    }


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Reproduce Table 2 and Figure 9."""
    table2 = format_table(
        (
            "conf", "single ports", "single area", "(paper)", "1-cyc time (ns)",
            "2-cyc time (ns)", "cache upper ports", "cache area", "(paper)",
            "cache cycle (ns)",
        ),
        _table2_rows(),
        title="Table 2: port configurations, modelled area and cycle time "
              "(areas in 10K λ², paper values for comparison)",
    )

    sections = [table2]
    data: dict = {"table2": _table2_rows()}
    for suite, label in settings.active_suite_labels():
        series: Dict[str, Dict[str, float]] = {}
        baseline: Optional[float] = None
        for configuration in TABLE2_CONFIGURATIONS:
            throughputs = _suite_throughputs(cache, suite, configuration)
            if baseline is None:
                baseline = throughputs["1-cycle"]
            for arch_name, value in throughputs.items():
                series.setdefault(arch_name, {})[configuration.name] = value / baseline
        data[label] = series
        best = {arch: max(values.values()) for arch, values in series.items()}
        rfc = best["non-bypass caching + prefetch-first-pair"]
        summary = (
            f"best-configuration speedup of the register file cache: "
            f"{100 * (rfc / best['1-cycle'] - 1):+.0f}% vs 1-cycle, "
            f"{100 * (rfc / best['2-cycle, 1-bypass'] - 1):+.0f}% vs 2-cycle/1-bypass"
        )
        data[label + "_best"] = best
        sections.append(
            format_series(
                series,
                title=f"Figure 9 — {label} relative instruction throughput "
                      f"(1-cycle @ C1 = 1.0). {summary}",
            )
        )

    return ExperimentResult(
        name="Figure 9 / Table 2",
        title="Performance with the register file access time factored in",
        body="\n\n".join(sections),
        data=data,
    )
