"""Tests of the experiment harness (small budgets so they stay fast)."""

import pytest

from repro.experiments import (
    figure1,
    figure2,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9_table2,
    headline,
    value_reuse,
)
from repro.experiments.common import (
    ExperimentSettings,
    SimulationCache,
    architecture_factories,
    register_file_cache_factory,
    suite_harmonic_mean,
    with_hmean,
)
from repro.experiments.runner import EXPERIMENTS, build_parser, run_experiments
from repro.experiments.scheduler import SweepEngine
from repro.experiments.store import ResultStore
from repro.pipeline.stats import SimulationStats


#: One small integer and one small FP benchmark keep harness tests quick.
QUICK = ExperimentSettings(instructions_per_benchmark=800, warmup_instructions=200,
                           benchmarks=["m88ksim", "swim"])


def filled_cache(settings: ExperimentSettings, points) -> SimulationCache:
    """A cache over a store the engine filled with exactly ``points``."""
    store = ResultStore()
    SweepEngine(store=store).execute(points)
    return SimulationCache(settings, store)


@pytest.fixture(scope="module")
def shared_cache() -> SimulationCache:
    """Every point the figure tests below read, figure 1 at two counts."""
    points = figure1.plan(QUICK, register_counts=(48, 128))
    for module in (figure2, figure3, figure5, figure6, figure7, value_reuse,
                   figure9_table2, headline):
        points += module.plan(QUICK)
    return filled_cache(QUICK, points)


class TestCommon:
    def test_settings_suite_filtering(self):
        assert QUICK.suite("int") == ["m88ksim"]
        assert QUICK.suite("fp") == ["swim"]
        full = ExperimentSettings()
        assert len(full.suite("all")) == 18

    def test_settings_validation(self):
        with pytest.raises(Exception):
            ExperimentSettings(instructions_per_benchmark=0)

    def test_processor_config_override(self):
        config = QUICK.processor_config(num_int_physical=64)
        assert config.max_instructions == 800
        assert config.num_int_physical == 64

    def test_simulation_cache_memoizes(self, shared_cache):
        factories = architecture_factories()
        first = shared_cache.stats("swim", factories["1-cycle"], "1-cycle")
        second = shared_cache.stats("swim", factories["1-cycle"], "1-cycle")
        assert first is second
        assert isinstance(first, SimulationStats)

    def test_suite_helpers(self, shared_cache):
        ipcs = shared_cache.suite_ipcs("fp", architecture_factories()["1-cycle"], "1-cycle")
        assert set(ipcs) == {"swim"}
        extended = with_hmean(ipcs)
        assert extended["Hmean"] == pytest.approx(suite_harmonic_mean(ipcs))

    def test_register_file_cache_factory_policies(self):
        cache = register_file_cache_factory(caching="ready", fetch="fetch-on-demand")()
        assert cache.caching_policy.name == "ready"
        assert cache.fetch_policy.name == "fetch-on-demand"


class TestFigureExperiments:
    def test_figure1_shape(self, shared_cache):
        result = figure1.run(QUICK, register_counts=(48, 128), cache=shared_cache)
        assert result.data["register_counts"] == [48, 128]
        series = result.data["series"]
        assert len(series["SpecInt95"]) == 2
        assert series["SpecFP95"][1] >= series["SpecFP95"][0] * 0.95
        assert "Figure 1" in result.render()

    def test_figure2_ordering(self, shared_cache):
        result = figure2.run(QUICK, cache=shared_cache)
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data[suite]
            one = series["1-cycle, 1-bypass level"]["Hmean"]
            full = series["2-cycle, 2-bypass levels"]["Hmean"]
            single = series["2-cycle, 1-bypass level"]["Hmean"]
            assert one >= full >= single

    def test_figure3_cdf_properties(self, shared_cache):
        result = figure3.run(QUICK, cache=shared_cache)
        for suite in ("SpecInt95", "SpecFP95"):
            cdf = result.data[suite]["value_and_instruction"]
            ready = result.data[suite]["value_and_ready"]
            assert len(cdf) == 33
            assert cdf[-1] == pytest.approx(100.0, abs=0.01)
            # Ready values are a subset of needed values.
            assert all(r >= n - 1e-9 for r, n in zip(ready, cdf))

    def test_figure5_has_four_policies(self, shared_cache):
        result = figure5.run(QUICK, cache=shared_cache)
        assert len(result.data["SpecInt95"]) == 4

    def test_figure6_rfc_between_baselines(self, shared_cache):
        result = figure6.run(QUICK, cache=shared_cache)
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data[suite]
            one = series["1-cycle"]["Hmean"]
            rfc = series["non-bypass caching + prefetch-first-pair"]["Hmean"]
            two = series["2-cycle"]["Hmean"]
            assert two <= rfc <= one * 1.05

    def test_figure7_rfc_close_to_full_bypass(self, shared_cache):
        result = figure7.run(QUICK, cache=shared_cache)
        summary = result.data["SpecFP95_summary"]["vs_two_cycle_full_pct"]
        assert -40.0 < summary < 20.0

    def test_value_reuse_fractions(self, shared_cache):
        result = value_reuse.run(QUICK, cache=shared_cache)
        for suite in ("SpecInt95", "SpecFP95"):
            fractions = result.data[suite]
            total = (fractions["never_read"] + fractions["read_once"]
                     + fractions["read_twice"] + fractions["read_three_plus"])
            assert total == pytest.approx(1.0, abs=1e-6)
            assert fractions["read_at_most_once"] > 0.5

    def test_figure9_table2_relative_throughput(self, shared_cache):
        result = figure9_table2.run(QUICK, cache=shared_cache)
        assert len(result.data["table2"]) == 4
        series = result.data["SpecInt95"]
        assert series["1-cycle"]["C1"] == pytest.approx(1.0)
        # The register file cache must clearly outperform the 1-cycle design
        # once the access time is factored in.
        rfc_best = max(series["non-bypass caching + prefetch-first-pair"].values())
        one_best = max(series["1-cycle"].values())
        assert rfc_best > one_best

    def test_headline_contains_all_claims(self, shared_cache):
        result = headline.run(QUICK, cache=shared_cache)
        assert len(result.data["measured"]) == 8
        assert "paper" in result.body


class TestFigure8:
    def test_figure8_pareto_points(self):
        # Use an even smaller budget: figure 8 sweeps many configurations.
        settings = ExperimentSettings(instructions_per_benchmark=400,
                                      warmup_instructions=100,
                                      benchmarks=["m88ksim", "swim"])
        result = figure8.run(settings, filled_cache(settings, figure8.plan(settings)))
        for suite in ("SpecInt95", "SpecFP95"):
            for architecture, points in result.data[suite].items():
                assert points, f"no pareto points for {architecture}"
                areas = [p["area_10Klambda2"] for p in points]
                perfs = [p["relative_performance"] for p in points]
                assert areas == sorted(areas)
                # Performance climbs along the frontier; it may only
                # repeat on an exact (area, performance) tie — distinct
                # port mixes pricing and performing identically are all
                # legitimate frontier members.
                pairs = list(zip(areas, perfs))
                for (area_a, perf_a), (area_b, perf_b) in zip(pairs, pairs[1:]):
                    assert perf_b > perf_a or (
                        perf_b == perf_a and area_b == area_a
                    )


class TestRunner:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "headline"
        assert args.instructions == 8000

    def test_registry_contains_all_experiments(self):
        assert {"figure1", "figure2", "figure3", "figure5", "figure6", "figure7",
                "figure8", "figure9", "value_reuse", "headline",
                "ablations"} == set(EXPERIMENTS)

    def test_run_experiments_shares_cache(self):
        results = run_experiments(["figure2"], QUICK)
        assert len(results) == 1
        assert "elapsed_seconds" in results[0].data
