"""Tests of the persistent result store, the parallel scheduler and the
machine-readable report formats."""

import dataclasses
import hashlib
import json
import pickle
import sys
import threading

import pytest

from repro.chaos import seams
from repro.errors import ConfigurationError, ReproError
from repro.experiments import figure6, figure7
from repro.experiments.common import (
    ExperimentSettings,
    RegisterFileCacheFactory,
    SimulationCache,
    architecture_factories,
    one_cycle_factory,
    plan,
)
from repro.experiments.runner import main as runner_main
from repro.experiments.runner import (
    EXPERIMENTS,
    plan_experiments,
    render_csv,
    run_experiments,
)
from repro.experiments import runner, scheduler
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
                simulation_key("swim", one_cycle_factory(), base, 100)
                != simulation_key("swim", one_cycle_factory(), changed, 100)
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
            simulation_key("swim", RegisterFileCacheFactory(upper_capacity=8),
                           config, 100)
            != simulation_key("swim", RegisterFileCacheFactory(upper_capacity=16),
                              config, 100)
        )

    def test_labels_of_one_factory_share_a_key(self):
        """The display label names a point; it does not key its result, so
        one architecture under two labels is simulated once."""
        point = _point()
        relabelled = dataclasses.replace(point, architecture="another label")
        assert relabelled.store_key() == point.store_key()
        store = ResultStore()
        summary = SweepEngine(store=store).execute([point, relabelled])
        assert summary["unique"] == summary["executed"] == len(store) == 1

    def test_opaque_factory_is_refused(self):
        """A lambda has no parameters to fingerprint: two lambdas of one
        name would share a key, so the key refuses them."""
        with pytest.raises(ConfigurationError, match="not a dataclass instance"):
            simulation_key("swim", lambda: None, TINY.processor_config(), 100)
        with pytest.raises(ConfigurationError, match="not a dataclass instance"):
            dataclasses.replace(_point(), factory=lambda: None).store_key()


class TestStoreKeyMemo:
    def test_keys_are_unchanged(self):
        """The memoised keys equal the ones recorded when the display
        label left the key payload."""
        points = plan(figure6.run, TINY) + plan(figure7.run, TINY)
        keys = sorted({point.store_key() for point in points})
        assert len(points) == 10 and len(keys) == 8
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
            "921d846ab79ac1606705ba7496c7e7ba94919111ff8d919070f2c16fc83d89f0"
        )
        assert points[0].store_key() == (
            "c4be756ac3b0e94c016ffaa7f4b5b778228341c8a2548e99d42d3a1ec20bc71f"
        )
        sampled = dataclasses.replace(points[0], sampling=parse_sampling("600:150:150"))
        assert sampled.store_key() == (
            "56e9fec19c4cf1e57268b8c7cce63569b8b7ff3e02a8e8a4971b1bbfe1be9d40"
        )

    def test_memo_matches_a_fresh_computation(self):
        for point in plan(figure6.run, TINY):
            fresh = simulation_key(point.benchmark, point.factory, point.config,
                                   point.warmup_instructions)
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
            point.benchmark, factory, point.config, point.warmup_instructions
        )


class TestPlanMemo:
    """``plan_experiments`` keeps each experiment's plan by its ``run`` and
    hashable settings (a benchmark tuple; the service builds one)."""

    SETTINGS = dataclasses.replace(TINY, benchmarks=("m88ksim", "swim"))

    def test_memo_matches_a_fresh_plan_in_a_new_list(self, monkeypatch):
        monkeypatch.setattr(runner, "_PLANS", {})
        fresh = plan(figure6.run, self.SETTINGS) + plan(figure7.run, self.SETTINGS)
        first = plan_experiments(["figure6", "figure7"], self.SETTINGS)
        assert first == fresh and len(runner._PLANS) == 2
        first.clear()
        assert plan_experiments(["figure6", "figure7"], self.SETTINGS) == fresh

    def test_unhashable_settings_are_planned_afresh(self, monkeypatch):
        monkeypatch.setattr(runner, "_PLANS", {})
        assert plan_experiments(["figure6"], TINY) == plan(figure6.run, TINY)
        assert runner._PLANS == {}

    def test_a_plan_that_raises_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(runner, "_PLANS", {})
        settings = dataclasses.replace(TINY, benchmarks=("nosuchbench",))
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="nosuchbench"):
                plan_experiments(["figure6"], settings)
        assert runner._PLANS == {}

    def test_memo_never_outgrows_its_cap(self, monkeypatch):
        monkeypatch.setattr(runner, "PLAN_MEMO_LIMIT", 2)
        monkeypatch.setattr(runner, "_PLANS", {})
        for instructions in range(300, 305):
            settings = dataclasses.replace(
                self.SETTINGS, instructions_per_benchmark=instructions)
            assert (plan_experiments(["figure6"], settings)
                    == plan(figure6.run, settings))
            assert len(runner._PLANS) <= 2


class TestScheduler:
    def test_factories_are_picklable(self):
        for name, factory in architecture_factories().items():
            rebuilt = pickle.loads(pickle.dumps(factory))
            assert rebuilt == factory, name

    def test_dedupe_across_plans(self):
        points = plan(figure6.run, TINY) + plan(figure7.run, TINY)
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

    def test_plans_are_the_points_runs_read(self):
        """Each experiment's run() reads, from a store holding every
        experiment's results, exactly the points its plan names: no
        fewer, and no more.  A run whose reads followed the values it
        read would plan other points over the stand-in results."""
        pooled = ResultStore()
        SweepEngine(store=pooled).execute(plan_experiments(list(EXPERIMENTS), TINY))

        class ReadLog:
            def __init__(self):
                self.keys = set()

            def get(self, key):
                self.keys.add(key)
                return pooled.get(key)

        for name, module in EXPERIMENTS.items():
            reads = ReadLog()
            module.run(TINY, SimulationCache(TINY, reads))
            planned = {point.store_key() for point in plan(module.run, TINY)}
            assert reads.keys == planned, name

    def test_ablations_simulate_each_architecture_once(self):
        """The ablations' baseline, 16-register and non-bypass points are
        one architecture under three labels: at the full suite, 288
        labelled points are 252 simulations."""
        points = plan_experiments(["ablations"], ExperimentSettings())
        assert len({point.architecture for point in points}) == 16
        assert len(dedupe_points(points)) == 252

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


class _SeamLog:
    """A fault injector that only notes which point each seam call is."""

    def __init__(self):
        self.points = []

    def fire(self, seam, **context):
        if seam == "engine.point":
            self.points.append(context["architecture"])


class TestPointSeam:
    """``engine.point`` fires once per executed point, so a fault aimed at
    the Nth point lands on that point."""

    @pytest.fixture
    def seam_log(self):
        log = _SeamLog()
        seams.install(log)
        yield log
        seams.uninstall()

    @staticmethod
    def _pair(warmup, sampling=None):
        return [
            dataclasses.replace(_point(), factory=factory, architecture=label,
                                warmup_instructions=warmup, sampling=sampling)
            for label, factory in (("1-cycle", one_cycle_factory()),
                                   ("rfc", RegisterFileCacheFactory()))
        ]

    @pytest.mark.parametrize("warmup", [0, 100])
    def test_one_fire_per_exact_point(self, seam_log, warmup):
        summary = SweepEngine(store=ResultStore()).execute(self._pair(warmup))
        assert summary["executed"] == summary["traces_recorded"] * 2 == 2
        assert seam_log.points == ["1-cycle", "rfc"]

    def test_one_fire_per_sampled_point(self, seam_log):
        points = self._pair(100, parse_sampling("200:50:50"))
        assert SweepEngine(store=ResultStore()).execute(points)["executed"] == 2
        assert seam_log.points == ["1-cycle", "rfc"]


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
