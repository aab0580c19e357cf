"""Tests of the persistent result store, the parallel scheduler and the
machine-readable report formats."""

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments import figure6, figure7
from repro.experiments.common import (
    ExperimentSettings,
    SimulationCache,
    architecture_factories,
    one_cycle_factory,
    register_file_cache_factory,
)
from repro.experiments.runner import main as runner_main
from repro.experiments.runner import render_csv, run_experiments
from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    dedupe_points,
    run_simulation_point,
)
from repro.experiments.store import ResultStore, simulation_key
from repro.pipeline.stats import SimulationStats

#: Tiny budget: these tests exercise plumbing, not simulation fidelity.
TINY = ExperimentSettings(instructions_per_benchmark=300, warmup_instructions=100,
                          benchmarks=["m88ksim", "swim"])


def _point(benchmark="swim", **config_overrides) -> SimulationPoint:
    return SimulationPoint(
        benchmark=benchmark,
        factory=one_cycle_factory(),
        architecture="1-cycle",
        config=TINY.processor_config(**config_overrides),
        warmup_instructions=TINY.warmup_instructions,
    )


class TestStatsSerialization:
    def test_round_trip_preserves_counters(self):
        stats = run_simulation_point(_point(collect_occupancy=True))
        clone = SimulationStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats
        assert clone.ipc == stats.ipc
        assert clone.occupancy_needed == stats.occupancy_needed
        # Counter keys must come back as integers, not strings.
        assert all(isinstance(key, int) for key in clone.occupancy_needed)

    def test_stats_pickle(self):
        stats = run_simulation_point(_point())
        assert pickle.loads(pickle.dumps(stats)) == stats


class TestResultStore:
    def test_memory_tier_returns_same_object(self):
        store = ResultStore()
        stats = SimulationStats(benchmark="x", cycles=10, committed_instructions=5)
        store.put("key", stats)
        assert store.get("key") is stats
        assert store.counters()["memory_hits"] == 1

    def test_persistent_round_trip(self, tmp_path):
        point = _point()
        stats = run_simulation_point(point)
        writer = ResultStore(cache_dir=str(tmp_path))
        writer.put(point.store_key(), stats, metadata=point.metadata())

        reader = ResultStore(cache_dir=str(tmp_path))
        loaded = reader.get(point.store_key())
        assert loaded is not None
        assert loaded == stats
        assert reader.counters()["disk_hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = ResultStore(cache_dir=str(tmp_path))
        (tmp_path / "deadbeef.json").write_text("{not json")
        assert store.get("deadbeef") is None
        assert store.counters()["misses"] == 1

    def test_cache_hits_across_simulation_cache_instances(self, tmp_path):
        first = SimulationCache(TINY, store=ResultStore(cache_dir=str(tmp_path)))
        before = first.run("swim", one_cycle_factory(), "1-cycle")
        assert first.store.counters()["stores"] == 1

        second = SimulationCache(TINY, store=ResultStore(cache_dir=str(tmp_path)))
        after = second.run("swim", one_cycle_factory(), "1-cycle")
        assert second.store.counters() == {
            "memory_hits": 0, "disk_hits": 1, "misses": 0, "stores": 0, "entries": 1,
        }
        assert after.ipc == before.ipc


class TestCacheKey:
    def test_full_config_is_keyed(self):
        """Configs differing in a field the old tuple key omitted must not
        collide (regression: the old key only looked at 5 config fields)."""
        base = TINY.processor_config()
        for overrides in ({"lsq_size": 8}, {"issue_width": 2},
                          {"fetch_width": 4}, {"max_cycles": 100_000}):
            changed = TINY.processor_config(**overrides)
            assert (
                simulation_key("swim", "1-cycle", base, 100, one_cycle_factory())
                != simulation_key("swim", "1-cycle", changed, 100, one_cycle_factory())
            ), f"key collision for {overrides}"

    def test_differing_configs_simulate_separately(self):
        cache = SimulationCache(TINY)
        narrow = cache.run("swim", one_cycle_factory(), "1-cycle",
                           TINY.processor_config(issue_width=1))
        wide = cache.run("swim", one_cycle_factory(), "1-cycle",
                         TINY.processor_config(issue_width=8))
        assert cache.store.counters()["stores"] == 2
        assert narrow is not wide
        assert narrow.ipc < wide.ipc

    def test_factory_parameters_are_keyed(self):
        config = TINY.processor_config()
        assert (
            simulation_key("swim", "same-label", config, 100,
                           register_file_cache_factory(upper_capacity=8))
            != simulation_key("swim", "same-label", config, 100,
                              register_file_cache_factory(upper_capacity=16))
        )


class TestScheduler:
    def test_factories_are_picklable(self):
        for name, factory in architecture_factories().items():
            rebuilt = pickle.loads(pickle.dumps(factory))
            assert rebuilt == factory, name

    def test_dedupe_across_plans(self):
        points = figure6.plan(TINY) + figure7.plan(TINY)
        unique = dedupe_points(points)
        # figure6 and figure7 share the register-file-cache runs.
        assert len(unique) < len(points)

    def test_execute_points_fills_store(self):
        store = ResultStore()
        summary = SweepEngine(store=store).execute(
            [_point("swim"), _point("swim"), _point("m88ksim")]
        )
        assert summary["requested"] == 3
        assert summary["unique"] == 2
        assert summary["executed"] == 2
        assert len(store) == 2

    def test_plans_cover_their_runs(self):
        """Executing every experiment's plan leaves nothing for run() to
        simulate — guards against plan()/run() enumerations drifting apart
        (which would silently defeat the parallel fan-out)."""
        from repro.experiments.runner import EXPERIMENTS, PLANNERS, plan_experiments

        store = ResultStore()
        SweepEngine(store=store).execute(plan_experiments(list(PLANNERS), TINY))
        stores_before = store.counters()["stores"]
        cache = SimulationCache(TINY, store=store)
        for name, experiment in EXPERIMENTS.items():
            experiment(TINY, cache=cache)
            assert store.counters()["stores"] == stores_before, (
                f"{name}.run() simulated points its plan() did not declare"
            )

    def test_parallel_matches_serial(self):
        serial = run_experiments(["figure6"], TINY, store=ResultStore(), jobs=1)
        parallel = run_experiments(["figure6"], TINY, store=ResultStore(), jobs=2)
        for suite in ("SpecInt95", "SpecFP95"):
            assert (json.dumps(serial[0].data[suite], sort_keys=True)
                    == json.dumps(parallel[0].data[suite], sort_keys=True))


class TestSuiteFilter:
    def test_unknown_benchmarks_raise(self):
        settings = ExperimentSettings(benchmarks=["m88ksim", "nosuchbench"])
        with pytest.raises(ConfigurationError, match="nosuchbench"):
            settings.suite("fp")

    def test_empty_filter_raises(self):
        with pytest.raises(ConfigurationError, match="empty"):
            ExperimentSettings(benchmarks=[])

    def test_filter_excluding_whole_suite_raises(self):
        settings = ExperimentSettings(benchmarks=["swim"])  # FP only
        with pytest.raises(ConfigurationError, match="matches no"):
            settings.suite("int")

    def test_valid_filter_still_selects(self):
        settings = ExperimentSettings(benchmarks=["swim", "m88ksim"])
        assert settings.suite("int") == ["m88ksim"]
        assert settings.suite("fp") == ["swim"]
        assert settings.active_suite_labels() == [("int", "SpecInt95"),
                                                  ("fp", "SpecFP95")]

    def test_single_suite_filter_runs_one_suite(self):
        """A valid FP-only filter runs the FP suite instead of failing on
        the empty integer suite."""
        fp_only = ExperimentSettings(instructions_per_benchmark=300,
                                     warmup_instructions=100,
                                     benchmarks=["swim"])
        assert fp_only.active_suite_labels() == [("fp", "SpecFP95")]
        (result,) = run_experiments(["figure2"], fp_only, store=ResultStore())
        assert "SpecFP95" in result.data
        assert "SpecInt95" not in result.data


class TestReportFormats:
    def test_json_report_schema(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        code = runner_main([
            "--experiment", "figure2", "--instructions", "300",
            "--benchmarks", "m88ksim", "swim",
            "--format", "json", "--output", str(output), "--quiet",
        ])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["schema"] == 1
        assert payload["settings"]["instructions_per_benchmark"] == 300
        assert payload["settings"]["benchmarks"] == ["m88ksim", "swim"]
        (result,) = payload["results"]
        assert result["name"] == "Figure 2"
        assert set(result) == {"name", "title", "body", "data"}
        assert "SpecInt95" in result["data"]
        # stdout carries the same report
        assert json.loads(capsys.readouterr().out)["schema"] == 1

    def test_csv_report_rows(self):
        results = run_experiments(["figure6"], TINY, store=ResultStore())
        report = render_csv(results)
        lines = report.strip().splitlines()
        assert lines[0] == "experiment,metric,value"
        assert any("SpecInt95.1-cycle.m88ksim" in line for line in lines[1:])

    def test_text_format_unchanged(self, capsys):
        code = runner_main([
            "--experiment", "value_reuse", "--instructions", "300",
            "--benchmarks", "m88ksim", "swim", "--quiet",
        ])
        assert code == 0
        assert "Value reuse" in capsys.readouterr().out
