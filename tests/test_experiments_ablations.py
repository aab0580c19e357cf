"""Tests of the ablation experiments (reduced scale)."""

import pytest

from repro.experiments import ablations
from repro.experiments.common import (
    ExperimentSettings,
    OneLevelBankedFactory,
    SimulationCache,
    suite_points,
)
from repro.experiments.scheduler import SweepEngine
from repro.experiments.store import ResultStore

QUICK = ExperimentSettings(instructions_per_benchmark=700, warmup_instructions=200,
                           benchmarks=["m88ksim", "swim"])


@pytest.fixture(scope="module")
def shared_cache() -> SimulationCache:
    """The full ablation plan plus the 8-port one-level banked points."""
    wide_banks = OneLevelBankedFactory(num_banks=2, read_ports_per_bank=8,
                                       write_ports_per_bank=8)
    points = ablations.plan(QUICK) + suite_points(QUICK, ("int", "fp"), wide_banks,
                                                  "one-level/2banks")
    store = ResultStore()
    SweepEngine(store=store).execute(points)
    return SimulationCache(QUICK, store)


class TestUpperCapacitySweep:
    def test_larger_upper_level_does_not_hurt(self, shared_cache):
        result = ablations.upper_capacity_sweep(QUICK, shared_cache, capacities=(4, 32))
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data["series"][suite]
            assert series["32 regs"] >= series["4 regs"] * 0.97
            assert series["1-cycle file"] >= series["32 regs"] * 0.95

    def test_render_contains_capacities(self, shared_cache):
        result = ablations.upper_capacity_sweep(QUICK, shared_cache, capacities=(8, 16))
        assert "8 regs" in result.body and "16 regs" in result.body


class TestCachingPolicySweep:
    def test_all_policies_present(self, shared_cache):
        result = ablations.caching_policy_sweep(QUICK, shared_cache)
        series = result.data["series"]["SpecFP95"]
        assert set(series) == {"non-bypass", "ready", "always", "never"}

    def test_never_caching_is_worst_or_equal(self, shared_cache):
        result = ablations.caching_policy_sweep(QUICK, shared_cache)
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data["series"][suite]
            best_real = max(series["non-bypass"], series["ready"], series["always"])
            assert series["never"] <= best_real * 1.02


class TestBusCountSweep:
    def test_more_buses_do_not_hurt(self, shared_cache):
        result = ablations.bus_count_sweep(QUICK, shared_cache, bus_counts=(1, 4))
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data["series"][suite]
            assert series["4 buses"] >= series["1 buses"] * 0.97


class TestOneLevelComparison:
    def test_contains_reference_architectures(self, shared_cache):
        result = ablations.one_level_banked_comparison(QUICK, shared_cache,
                                                       bank_counts=(2,))
        series = result.data["series"]["SpecInt95"]
        assert "one-level, 2 banks" in series
        assert "register file cache" in series
        assert "1-cycle file" in series

    def test_one_level_banked_close_to_one_cycle_with_enough_ports(self, shared_cache):
        result = ablations.one_level_banked_comparison(
            QUICK, shared_cache, bank_counts=(2,),
            read_ports_per_bank=8, write_ports_per_bank=8,
        )
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data["series"][suite]
            assert series["one-level, 2 banks"] >= series["1-cycle file"] * 0.9


class TestCombinedRun:
    def test_run_concatenates_all_ablations(self, shared_cache):
        result = ablations.run(QUICK, shared_cache)
        assert "upper-level capacity" in result.body
        assert "caching policy" in result.body
        assert "buses" in result.body
        assert "one-level" in result.body
        assert len(result.data) == 4
