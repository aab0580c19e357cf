"""Ablation studies beyond the paper's published figures.

The paper's conclusions call out several design choices whose sensitivity
is worth quantifying, and mention the one-level organisation as ongoing
work.  This module provides four ablations of the register file cache on
a configurable benchmark subset:

* **upper-level capacity** — how large does the upper bank have to be
  (the paper fixes 16 registers)?
* **caching policy** — non-bypass and ready caching versus the
  always-cache and never-cache baselines.
* **number of buses** — how much inter-level bandwidth is needed for the
  demand fills and prefetches?
* **one-level banked organisation** — the alternative sketched in
  Figure 4a, with the register file split into interleaved banks that all
  feed the functional units.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.tables import format_series
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SimulationCache,
    one_cycle_factory,
    suite_harmonic_mean,
)
from repro.regfile.cache import CACHING_POLICIES

#: Upper-level capacities swept by the capacity ablation.
UPPER_CAPACITIES: Sequence[int] = (4, 8, 16, 32, 64)
#: Bus counts swept by the bandwidth ablation.
BUS_COUNTS: Sequence[int] = (1, 2, 4)
#: Bank counts for the one-level organisation.
BANK_COUNTS: Sequence[int] = (2, 4)


def _suite_hmeans(cache: SimulationCache, factory, key: str) -> Dict[str, float]:
    return {
        label: suite_harmonic_mean(cache.suite_ipcs(suite, factory, key))
        for suite, label in cache.settings.active_suite_labels()
    }


def upper_capacity_sweep(
    settings: ExperimentSettings,
    cache: SimulationCache,
    capacities: Sequence[int] = UPPER_CAPACITIES,
) -> ExperimentResult:
    """IPC of the register file cache as the upper-level size varies."""
    series: Dict[str, Dict[str, float]] = {
        label: {} for _suite, label in settings.active_suite_labels()
    }
    for capacity in capacities:
        hmeans = _suite_hmeans(cache, RegisterFileCacheFactory(upper_capacity=capacity),
                               f"rfc/cap{capacity}")
        for suite, value in hmeans.items():
            series[suite][f"{capacity} regs"] = value
    baseline = _suite_hmeans(cache, one_cycle_factory(), "1-cycle")
    for suite, value in baseline.items():
        series[suite]["1-cycle file"] = value
    body = format_series(series, title="Harmonic-mean IPC vs upper-level capacity")
    return ExperimentResult(
        name="Ablation: upper-level capacity",
        title="Register file cache IPC for varying upper-level sizes",
        body=body,
        data={"series": series, "capacities": list(capacities)},
    )


def caching_policy_sweep(
    settings: ExperimentSettings,
    cache: SimulationCache,
    policies: Sequence[str] = CACHING_POLICIES,
) -> ExperimentResult:
    """IPC of the register file cache under different caching policies."""
    series: Dict[str, Dict[str, float]] = {
        label: {} for _suite, label in settings.active_suite_labels()
    }
    for policy in policies:
        hmeans = _suite_hmeans(cache, RegisterFileCacheFactory(caching=policy),
                               f"rfc/policy/{policy}")
        for suite, value in hmeans.items():
            series[suite][policy] = value
    body = format_series(series, title="Harmonic-mean IPC vs caching policy")
    return ExperimentResult(
        name="Ablation: caching policy",
        title="Register file cache IPC under different caching policies",
        body=body,
        data={"series": series},
    )


def bus_count_sweep(
    settings: ExperimentSettings,
    cache: SimulationCache,
    bus_counts: Sequence[int] = BUS_COUNTS,
) -> ExperimentResult:
    """IPC of the register file cache as inter-level bandwidth varies."""
    series: Dict[str, Dict[str, float]] = {
        label: {} for _suite, label in settings.active_suite_labels()
    }
    for buses in bus_counts:
        hmeans = _suite_hmeans(cache, RegisterFileCacheFactory(buses=buses),
                               f"rfc/buses{buses}")
        for suite, value in hmeans.items():
            series[suite][f"{buses} buses"] = value
    body = format_series(series, title="Harmonic-mean IPC vs number of inter-level buses")
    return ExperimentResult(
        name="Ablation: inter-level buses",
        title="Register file cache IPC for varying bus counts",
        body=body,
        data={"series": series},
    )


def one_level_banked_comparison(
    settings: ExperimentSettings,
    cache: SimulationCache,
    bank_counts: Sequence[int] = BANK_COUNTS,
    read_ports_per_bank: int = 2,
    write_ports_per_bank: int = 2,
) -> ExperimentResult:
    """The one-level multiple-banked organisation vs the register file cache."""
    series: Dict[str, Dict[str, float]] = {
        label: {} for _suite, label in settings.active_suite_labels()
    }
    for banks in bank_counts:
        factory = OneLevelBankedFactory(num_banks=banks,
                                        read_ports_per_bank=read_ports_per_bank,
                                        write_ports_per_bank=write_ports_per_bank)
        hmeans = _suite_hmeans(cache, factory, f"one-level/{banks}banks")
        for suite, value in hmeans.items():
            series[suite][f"one-level, {banks} banks"] = value
    rfc = _suite_hmeans(cache, RegisterFileCacheFactory(),
                        "rfc/non-bypass/prefetch-first-pair")
    one_cycle = _suite_hmeans(cache, one_cycle_factory(), "1-cycle")
    for suite in series:
        series[suite]["register file cache"] = rfc[suite]
        series[suite]["1-cycle file"] = one_cycle[suite]
    body = format_series(series, title="Harmonic-mean IPC, one-level banked organisation")
    return ExperimentResult(
        name="Ablation: one-level organisation",
        title="One-level multiple-banked register file vs the register file cache",
        body=body,
        data={"series": series},
    )


def run(
    settings: ExperimentSettings,
    cache: SimulationCache,
) -> ExperimentResult:
    """Run all four ablations and concatenate their reports."""
    parts = [
        upper_capacity_sweep(settings, cache),
        caching_policy_sweep(settings, cache),
        bus_count_sweep(settings, cache),
        one_level_banked_comparison(settings, cache),
    ]
    body = "\n\n".join(part.body for part in parts)
    return ExperimentResult(
        name="Ablations",
        title="Design-choice ablations of the register file cache",
        body=body,
        data={part.name: part.data for part in parts},
    )
