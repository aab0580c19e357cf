"""Pick the best register file under an area budget (Figure 8/9 style).

Run with::

    python examples/area_tradeoff.py [area_budget_in_10K_lambda2] [instructions]

For a given silicon-area budget (default 16000 ×10Kλ², between the
paper's C2 and C3 points), this example enumerates port configurations of
the 1-cycle single-banked register file, the 2-cycle pipelined one and
the register file cache, keeps those that fit the budget, simulates a
small benchmark subset, factors in the cycle time predicted by the
access-time model and reports the best *instruction throughput* each
architecture can reach — the paper's bottom-line comparison.
"""

from __future__ import annotations

import sys

from repro import ProcessorConfig, SyntheticWorkload, get_profile, simulate
from repro.analysis import format_table, harmonic_mean
from repro.experiments.common import (
    RegisterFileCacheFactory,
    one_cycle_factory,
    two_cycle_one_bypass_factory,
)
from repro.hwmodel import (
    RegisterFileGeometry,
    RegisterFileCacheGeometry,
    access_time_ns,
)

BENCHMARKS = ("m88ksim", "swim")


def _suite_ipc(factory, instructions: int) -> float:
    config = ProcessorConfig(max_instructions=instructions)
    ipcs = []
    for benchmark in BENCHMARKS:
        workload = SyntheticWorkload(get_profile(benchmark))
        stats = simulate(workload.instructions(instructions + 1500), factory,
                         config, benchmark)
        ipcs.append(stats.ipc)
    return harmonic_mean(ipcs)


def main() -> None:
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 16_000.0
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 3_000

    rows = []

    # Single-banked candidates (shared geometry for the 1- and 2-cycle files).
    single_candidates = [
        RegisterFileGeometry(128, reads, writes)
        for reads in (2, 3, 4) for writes in (2, 3, 4)
    ]
    best_single = max(
        (g for g in single_candidates if g.area_units() <= budget),
        key=lambda g: g.total_ports,
        default=None,
    )
    if best_single is not None:
        access = access_time_ns(128, best_single.read_ports, best_single.write_ports)
        ipc_1 = _suite_ipc(one_cycle_factory(best_single.read_ports,
                                             best_single.write_ports), instructions)
        ipc_2 = _suite_ipc(two_cycle_one_bypass_factory(best_single.read_ports,
                                                        best_single.write_ports), instructions)
        rows.append(("1-cycle single-banked",
                     f"{best_single.read_ports}R/{best_single.write_ports}W",
                     round(best_single.area_units()), round(access, 2),
                     round(ipc_1, 3), round(ipc_1 / access, 4)))
        rows.append(("2-cycle single-banked, 1 bypass",
                     f"{best_single.read_ports}R/{best_single.write_ports}W",
                     round(best_single.area_units()), round(access / 2, 2),
                     round(ipc_2, 3), round(ipc_2 / (access / 2), 4)))

    # Register file cache candidates.
    cache_candidates = [
        RegisterFileCacheGeometry(upper_read_ports=reads, upper_write_ports=writes,
                                  lower_write_ports=writes, buses=buses)
        for reads in (3, 4) for writes in (2, 3, 4) for buses in (2, 3)
    ]
    best_cache = max(
        (g for g in cache_candidates if g.area_units() <= budget),
        key=lambda g: (g.upper_read_ports + g.upper_write_ports + g.buses),
        default=None,
    )
    if best_cache is not None:
        cycle = best_cache.cycle_time_ns()
        ipc = _suite_ipc(
            RegisterFileCacheFactory(
                upper_read_ports=best_cache.upper_read_ports,
                upper_write_ports=best_cache.upper_write_ports,
                lower_write_ports=best_cache.lower_write_ports,
                buses=best_cache.buses,
                lower_read_latency=best_cache.lower_read_latency_cycles(),
            ),
            instructions,
        )
        ports = (f"{best_cache.upper_read_ports}R/{best_cache.upper_write_ports}W"
                 f"+{best_cache.buses}B")
        rows.append(("register file cache", ports, round(best_cache.area_units()),
                     round(cycle, 2), round(ipc, 3), round(ipc / cycle, 4)))

    print(format_table(
        ("architecture", "ports", "area (10Kλ²)", "cycle (ns)", "IPC", "inst/ns"),
        rows,
        title=f"Best configuration under an area budget of {budget:.0f} ×10Kλ²",
    ))
    if rows:
        best = max(rows, key=lambda row: row[-1])
        print(f"\nhighest throughput under the budget: {best[0]} ({best[1]}), "
              f"{best[-1]} instructions/ns")


if __name__ == "__main__":
    main()
