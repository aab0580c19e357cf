"""Figure 8: performance versus register file area.

For each register file architecture every combination of read/write port
counts is evaluated; configurations dominated by a cheaper-and-faster
sibling are discarded, and the surviving (area, relative IPC) points are
reported.  Performance is IPC relative to the 1-cycle single-banked file
with unlimited ports, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.tables import format_table
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
from repro.hwmodel.area import RegisterFileGeometry
from repro.hwmodel.configurations import RegisterFileCacheGeometry
from repro.hwmodel.pareto import DesignPoint, pareto_frontier

#: Port ranges swept by default (kept small so a full sweep stays fast).
SINGLE_READ_PORTS: Sequence[int] = (2, 3, 4)
SINGLE_WRITE_PORTS: Sequence[int] = (2, 3, 4)
CACHE_READ_PORTS: Sequence[int] = (2, 3, 4)
CACHE_WRITE_PORTS: Sequence[int] = (2, 3)
CACHE_BUSES: Sequence[int] = (1, 2)


def _single_banked_arch(latency: int, reads: int, writes: int) -> tuple:
    """(factory, key) of one swept single-banked configuration."""
    if latency == 1:
        return (one_cycle_factory(read_ports=reads, write_ports=writes),
                f"1-cycle/{reads}R{writes}W")
    return (two_cycle_one_bypass_factory(read_ports=reads, write_ports=writes),
            f"2-cycle-1byp/{reads}R{writes}W")


def _rfc_arch(reads: int, writes: int, buses: int) -> tuple:
    """(factory, key) of one swept register-file-cache configuration."""
    return (
        register_file_cache_factory(
            upper_read_ports=reads,
            upper_write_ports=writes,
            lower_write_ports=writes,
            buses=buses,
        ),
        f"rfc/{reads}R{writes}W{buses}B",
    )


def _swept_architectures() -> List[tuple]:
    """Every (factory, key) pair the sweep evaluates, baseline included."""
    pairs: List[tuple] = [(one_cycle_factory(), "1-cycle")]
    for reads in SINGLE_READ_PORTS:
        for writes in SINGLE_WRITE_PORTS:
            pairs.append(_single_banked_arch(1, reads, writes))
            pairs.append(_single_banked_arch(2, reads, writes))
    for reads in CACHE_READ_PORTS:
        for writes in CACHE_WRITE_PORTS:
            for buses in CACHE_BUSES:
                pairs.append(_rfc_arch(reads, writes, buses))
    return pairs


def plan(settings: ExperimentSettings) -> List:
    """Simulation points Figure 8 needs (for the parallel scheduler)."""
    points: List = []
    for factory, key in _swept_architectures():
        points += suite_points(settings, ("int", "fp"), factory, key)
    return points


def _single_banked_points(
    cache: SimulationCache,
    suite: str,
    latency: int,
    baseline_ipc: float,
) -> List[DesignPoint]:
    points: List[DesignPoint] = []
    for reads in SINGLE_READ_PORTS:
        for writes in SINGLE_WRITE_PORTS:
            factory, key = _single_banked_arch(latency, reads, writes)
            ipcs = cache.suite_ipcs(suite, factory, key)
            geometry = RegisterFileGeometry(128, reads, writes)
            points.append(
                DesignPoint(
                    cost=geometry.area_units(),
                    value=suite_harmonic_mean(ipcs) / baseline_ipc,
                    label=f"{reads}R/{writes}W",
                )
            )
    return points


def _register_file_cache_points(
    cache: SimulationCache,
    suite: str,
    baseline_ipc: float,
) -> List[DesignPoint]:
    points: List[DesignPoint] = []
    for reads in CACHE_READ_PORTS:
        for writes in CACHE_WRITE_PORTS:
            for buses in CACHE_BUSES:
                factory, key = _rfc_arch(reads, writes, buses)
                ipcs = cache.suite_ipcs(suite, factory, key)
                geometry = RegisterFileCacheGeometry(
                    upper_read_ports=reads,
                    upper_write_ports=writes,
                    lower_write_ports=writes,
                    buses=buses,
                )
                points.append(
                    DesignPoint(
                        cost=geometry.area_units(),
                        value=suite_harmonic_mean(ipcs) / baseline_ipc,
                        label=f"{reads}R/{writes}W/{buses}B",
                    )
                )
    return points


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Reproduce Figure 8 (Pareto frontier of performance vs area)."""
    sections = []
    data: Dict[str, Dict[str, List[dict]]] = {}
    for suite, label in settings.active_suite_labels():
        baseline = suite_harmonic_mean(
            cache.suite_ipcs(suite, one_cycle_factory(), "1-cycle")
        )
        architectures = {
            "1-cycle": _single_banked_points(cache, suite, 1, baseline),
            "register file cache": _register_file_cache_points(cache, suite, baseline),
            "2-cycle, 1-bypass": _single_banked_points(cache, suite, 2, baseline),
        }
        data[label] = {}
        rows = []
        for arch_name, points in architectures.items():
            frontier = pareto_frontier(points)
            data[label][arch_name] = [
                {"area_10Klambda2": p.cost, "relative_performance": p.value, "ports": p.label}
                for p in frontier
            ]
            for point in frontier:
                rows.append((arch_name, point.label, round(point.cost), round(point.value, 3)))
        rows.sort(key=lambda row: (row[0], row[2]))
        sections.append(
            format_table(
                ("architecture", "ports", "area (10K λ²)", "relative performance"),
                rows,
                title=f"{label}: Pareto-optimal configurations "
                      f"(performance relative to 1-cycle, unlimited ports)",
            )
        )

    return ExperimentResult(
        name="Figure 8",
        title="Performance for a varying area cost (Pareto frontier per architecture)",
        body="\n\n".join(sections),
        data=data,
    )
