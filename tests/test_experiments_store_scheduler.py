"""Tests of the persistent result store, the parallel scheduler and the
machine-readable report formats."""

import dataclasses
import hashlib
import json
import pickle
import sys
import threading

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments import figure6, figure7
from repro.experiments.common import (
    ExperimentSettings,
    RegisterFileCacheFactory,
    SimulationCache,
    architecture_factories,
    one_cycle_factory,
)
from repro.experiments.runner import main as runner_main
from repro.experiments.runner import render_csv, run_experiments
from repro.experiments import scheduler
from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    dedupe_points,
    run_simulation_point,
)
from repro.experiments.store import ResultStore, simulation_key
from repro.pipeline.stats import SimulationStats
from repro.sampling import parse_sampling

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
        writer = ResultStore(cache_dir=str(tmp_path))
        writer.put("deadbeef", SimulationStats(benchmark="x", cycles=10))
        writer._disk.put("deadbeef", b"{not json")
        reader = ResultStore(cache_dir=str(tmp_path))
        assert reader.get("deadbeef") is None
        assert reader.counters()["misses"] == 1

    def test_cache_hits_across_simulation_cache_instances(self, tmp_path):
        first = SimulationCache(TINY, ResultStore(cache_dir=str(tmp_path)))
        SweepEngine(store=first.store).execute([_point()])
        before = first.stats("swim", one_cycle_factory(), "1-cycle")
        assert first.store.counters()["stores"] == 1

        second = SimulationCache(TINY, ResultStore(cache_dir=str(tmp_path)))
        after = second.stats("swim", one_cycle_factory(), "1-cycle")
        assert second.store.counters() == {
            "memory_hits": 0, "disk_hits": 1, "misses": 0, "rejected": 0,
            "stores": 0, "entries": 1,
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
        cache = SimulationCache(TINY, ResultStore())
        SweepEngine(store=cache.store).execute(
            [_point(issue_width=1), _point(issue_width=8)]
        )
        narrow = cache.stats("swim", one_cycle_factory(), "1-cycle",
                             TINY.processor_config(issue_width=1))
        wide = cache.stats("swim", one_cycle_factory(), "1-cycle",
                           TINY.processor_config(issue_width=8))
        assert cache.store.counters()["stores"] == 2
        assert narrow is not wide
        assert narrow.ipc < wide.ipc

    def test_factory_parameters_are_keyed(self):
        config = TINY.processor_config()
        assert (
            simulation_key("swim", "same-label", config, 100,
                           RegisterFileCacheFactory(upper_capacity=8))
            != simulation_key("swim", "same-label", config, 100,
                              RegisterFileCacheFactory(upper_capacity=16))
        )


class TestStoreKeyMemo:
    def test_keys_are_unchanged(self):
        """The memoised keys equal the ones every existing cache was
        written under (recorded before the memo existed)."""
        points = figure6.plan(TINY) + figure7.plan(TINY)
        keys = sorted({point.store_key() for point in points})
        assert len(points) == 10 and len(keys) == 8
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
            "c1d2b4667846d192880fbf3d185649bf2c92b8176c4fe51ebbe68f8e1dda0109"
        )
        assert points[0].store_key() == (
            "0340294fa6ec50429aee761307c9220c06975d57b285a2eb725c155d492d061b"
        )
        sampled = dataclasses.replace(points[0], sampling=parse_sampling("600:150:150"))
        assert sampled.store_key() == (
            "5eea65a651717c5d5e65d534eafa99d97d9ef3387cffdcbe13bffcb410772ae3"
        )

    def test_memo_matches_a_fresh_computation(self):
        for point in figure6.plan(TINY):
            fresh = simulation_key(point.benchmark, point.architecture, point.config,
                                   point.warmup_instructions, point.factory)
            assert point.store_key() == fresh
            assert dataclasses.replace(point).store_key() == fresh

    def test_memo_never_outgrows_its_cap(self, monkeypatch):
        monkeypatch.setattr(scheduler, "STORE_KEY_MEMO_LIMIT", 4)
        monkeypatch.setattr(scheduler, "_STORE_KEYS", {})
        keys = set()
        for max_cycles in range(1000, 1010):
            keys.add(_point(max_cycles=max_cycles).store_key())
            assert len(scheduler._STORE_KEYS) <= 4
        assert len(keys) == 10

    def test_memo_holds_under_thread_contention(self, monkeypatch):
        monkeypatch.setattr(scheduler, "STORE_KEY_MEMO_LIMIT", 8)
        monkeypatch.setattr(scheduler, "_STORE_KEYS", {})
        points = [_point(max_cycles=cycles) for cycles in range(2000, 2040)]
        expected = [point._compute_store_key() for point in points]
        oversized, wrong = [], []

        def worker(offset: int) -> None:
            for round_ in range(5):
                for index in range(len(points)):
                    index = (index + offset + round_) % len(points)
                    if points[index].store_key() != expected[index]:
                        wrong.append(index)
                    if len(scheduler._STORE_KEYS) > 8:
                        oversized.append(len(scheduler._STORE_KEYS))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n * 7,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and oversized == []

    def test_unhashable_point_still_gets_its_key(self):
        point = _point()
        factory = RegisterFileCacheFactory(buses=[2])
        odd = dataclasses.replace(point, factory=factory)
        assert odd.store_key() == simulation_key(
            point.benchmark, point.architecture, point.config, point.warmup_instructions, factory
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

    def test_waiter_counts_a_point_it_reruns_after_the_owner_died(self):
        """A call waiting on another call's in-flight point re-runs it
        when the owner dies, and counts it as executed."""
        engine = SweepEngine(store=ResultStore())
        claim, run_pending = engine._claim, engine._run_pending
        owner_running = threading.Event()
        waiter_registered = threading.Event()

        def claim_and_signal(pending):
            owned, shared = claim(pending)
            if shared:
                waiter_registered.set()
            return owned, shared

        def owner_dies_first(*args):
            if not owner_running.is_set():
                owner_running.set()
                assert waiter_registered.wait(timeout=30)
                raise RuntimeError("owner died")
            run_pending(*args)

        engine._claim = claim_and_signal
        engine._run_pending = owner_dies_first
        point = _point("swim")
        failures = []

        def owner():
            try:
                engine.execute([point])
            except RuntimeError as error:
                failures.append(error)

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert owner_running.wait(timeout=30)
        messages = []
        summary = engine.execute([point], progress=messages.append)
        owner_thread.join(timeout=30)
        assert len(failures) == 1
        assert summary["shared_inflight"] == 1
        assert summary["executed"] == 1
        assert any(message.startswith("[1/1] swim") for message in messages)
        assert engine.store.get(point.store_key()) is not None
        assert engine.totals()["executed"] == 1

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_engine_rejects_non_positive_jobs(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs must be at least 1"):
            SweepEngine(store=ResultStore(), jobs=jobs)

    def test_plans_cover_their_runs(self):
        """Each experiment's run() reads only the points its own plan()
        declares: it runs over a store holding that plan's results and
        nothing else, so leaning on another experiment's points raises."""
        from repro.experiments.runner import EXPERIMENTS, plan_experiments

        pooled = ResultStore()
        SweepEngine(store=pooled).execute(plan_experiments(list(EXPERIMENTS), TINY))
        for module in EXPERIMENTS.values():
            own = ResultStore()
            for key in dedupe_points(module.plan(TINY)):
                own.put(key, pooled.get(key))
            module.run(TINY, SimulationCache(TINY, own))

    def test_undeclared_point_is_an_error(self):
        cache = SimulationCache(TINY, ResultStore())
        with pytest.raises(ReproError, match=r"'swim'.*'1-cycle'.*plan\(\)"):
            cache.stats("swim", one_cycle_factory(), "1-cycle")
        with pytest.raises(ReproError, match="does not declare"):
            figure6.run(TINY, cache)
        assert cache.store.counters()["stores"] == 0

    def test_parallel_matches_serial(self):
        serial = run_experiments(["figure6"], TINY, SweepEngine(jobs=1))
        parallel = run_experiments(["figure6"], TINY, SweepEngine(jobs=2))
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
        (result,) = run_experiments(["figure2"], fp_only)
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
        results = run_experiments(["figure6"], TINY)
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
