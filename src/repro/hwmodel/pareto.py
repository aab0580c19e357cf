"""Pareto filtering (Figure 8 machinery).

Figure 8 of the paper sweeps, for every register file architecture, all
combinations of read/write port counts, discards the configurations that
are dominated (another configuration of the same architecture with lower
area and higher IPC) and plots the surviving (area, relative-performance)
points.  This module provides the generic Pareto filter;
:mod:`repro.experiments.figure8` enumerates the candidate geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design: its cost (area), its value (performance), and
    an arbitrary payload describing the configuration."""

    cost: float
    value: float
    label: str = ""
    payload: object = field(default=None, compare=False)


def pareto_frontier(points: Iterable[DesignPoint]) -> List[DesignPoint]:
    """Keep only non-dominated points (lower cost and higher value win).

    A point is dominated if another point has cost <= its cost and
    value >= its value, with at least one strict inequality.  Points tied
    on *both* cost and value dominate nothing and are all kept — distinct
    configurations landing on the same (area, IPC) spot are equally
    optimal and the frontier reports every one of them, not an arbitrary
    winner.
    """
    candidates = sorted(points, key=lambda point: (point.cost, -point.value))
    frontier: List[DesignPoint] = []
    best_value = float("-inf")
    best_cost = float("-inf")
    for point in candidates:
        if point.value > best_value:
            frontier.append(point)
            best_value = point.value
            best_cost = point.cost
        elif point.value == best_value and point.cost == best_cost:
            # Exact (cost, value) tie with the frontier's current corner:
            # neither point dominates the other (no strict inequality).
            frontier.append(point)
    return frontier
