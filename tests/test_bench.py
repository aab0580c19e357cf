"""Tests for the performance subsystem (``repro.bench``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.report import (
    BenchReport,
    BenchReportError,
    ScenarioResult,
    compare_reports,
    environment_fingerprint,
    next_report_index,
)
from repro.bench.runner import BenchmarkRunner, run_and_save
from repro.bench.scenarios import (
    component_scenarios,
    headline_scenario,
    simulation_scenarios,
    with_budget,
)
from repro.bench.__main__ import main as bench_main


def _report(index, scenarios, calibration=1_000_000.0):
    return BenchReport(
        index=index,
        created="2026-07-30T00:00:00+00:00",
        environment={"python_version": "3.11"},
        calibration_score=calibration,
        scenarios=scenarios,
    )


def _sim_result(name, cycles, wall):
    return ScenarioResult(
        name=name,
        kind="simulation",
        wall_seconds=wall,
        repeats=1,
        cycles=cycles,
        instructions=cycles,
        cycles_per_second=cycles / wall,
        instructions_per_second=cycles / wall,
    )


class TestScenarios:
    def test_quick_matrix_has_headline_and_all_architectures(self):
        scenarios = simulation_scenarios(quick=True)
        names = [s.name for s in scenarios]
        assert len(names) == len(set(names))
        headline = [s for s in scenarios if s.headline]
        assert len(headline) == 1
        architectures = {s.name.split("/")[2] for s in scenarios if not s.headline}
        assert {"1-cycle", "2-cycle-1-bypass", "one-level-banked",
                "register-file-cache"} <= architectures

    def test_quick_budgets_are_smaller(self):
        quick = headline_scenario(quick=True)
        full = headline_scenario(quick=False)
        assert quick.instructions < full.instructions

    def test_component_kernels_are_always_present(self):
        counts = {s.name: s.run() for s in component_scenarios()}
        assert set(counts) == {
            "component/workload_generation",
            "component/gshare_prediction_throughput",
            "component/dcache_accesses",
            "component/pseudo_lru_operations",
            "component/register_file_cache_writeback_path",
        }
        assert counts["component/workload_generation"] == 5000
        assert counts["component/gshare_prediction_throughput"] == 2000
        assert counts["component/dcache_accesses"] > 0
        assert counts["component/pseudo_lru_operations"] == 16
        assert counts["component/register_file_cache_writeback_path"] == 128

    def test_scenario_run_is_deterministic(self):
        scenario = with_budget(headline_scenario(quick=True), 300)
        first = scenario.run().to_dict()
        second = scenario.run().to_dict()
        assert first == second


class TestRunnerAndReport:
    def test_runner_produces_schema_versioned_report(self, tmp_path):
        scenario = with_budget(headline_scenario(quick=True), 300)
        runner = BenchmarkRunner(quick=True, repeats=1, scenarios=[scenario])
        report = runner.run(index=7)
        assert report.schema == 1
        assert report.index == 7
        assert report.calibration_score > 0
        [result] = report.scenarios
        assert result.cycles and result.cycles_per_second > 0
        assert result.stats_digest and len(result.stats_digest) == 64
        path = report.save(str(tmp_path))
        assert path.endswith("BENCH_7.json")
        loaded = BenchReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_run_and_save_auto_numbers_against_existing_reports(self, tmp_path):
        (tmp_path / "BENCH_3.json").write_text("{}")
        scenario = with_budget(headline_scenario(quick=True), 200)
        _, path = run_and_save(
            output_dir=str(tmp_path), quick=True, repeats=1,
            name_filter="headline",
        )
        assert path.endswith("BENCH_4.json")

    def test_next_report_index_scans_multiple_directories(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        (first / "BENCH_1.json").write_text("{}")
        (second / "BENCH_5.json").write_text("{}")
        assert next_report_index([str(first), str(second), "/nonexistent"]) == 6
        assert next_report_index([str(tmp_path)]) == 1

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        assert env["python_version"]
        assert env["cpu_count"] >= 1

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_9.json"
        path.write_text(json.dumps({"schema": 99, "index": 9}))
        with pytest.raises(BenchReportError):
            BenchReport.load(str(path))


class TestCompare:
    def test_regression_beyond_threshold_flagged(self):
        baseline = _report(1, [_sim_result("headline", 10_000, 1.0)])
        current = _report(2, [_sim_result("headline", 10_000, 2.0)])
        comparison = compare_reports(baseline, current, threshold=0.25)
        assert not comparison.ok
        [regression] = comparison.regressions
        assert regression.name == "headline"
        assert regression.change_fraction == pytest.approx(-0.5)

    def test_small_slowdown_within_threshold_passes(self):
        baseline = _report(1, [_sim_result("headline", 10_000, 1.0)])
        current = _report(2, [_sim_result("headline", 10_000, 1.1)])
        assert compare_reports(baseline, current, threshold=0.25).ok

    def test_calibration_normalization_cancels_machine_speed(self):
        # Same simulator speed relative to the interpreter, but the
        # "current" machine is 2x slower overall: no regression.
        baseline = _report(1, [_sim_result("headline", 10_000, 1.0)],
                           calibration=2_000_000.0)
        current = _report(2, [_sim_result("headline", 10_000, 2.0)],
                          calibration=1_000_000.0)
        assert compare_reports(baseline, current, threshold=0.25).ok
        # Raw mode sees the slowdown.
        raw = compare_reports(baseline, current, threshold=0.25, normalize=False)
        assert not raw.ok

    def test_missing_scenarios_fail_the_gate(self):
        baseline = _report(1, [_sim_result("gone", 1000, 1.0)])
        current = _report(2, [_sim_result("fresh", 1000, 1.0)])
        comparison = compare_reports(baseline, current)
        assert comparison.missing_scenarios == ["gone"]
        assert comparison.new_scenarios == ["fresh"]
        # Lost coverage must not pass silently, even with no regressions.
        assert not comparison.ok
        assert "LOST COVERAGE" in comparison.render()

    def test_new_scenarios_alone_do_not_fail_the_gate(self):
        baseline = _report(1, [_sim_result("headline", 1000, 1.0)])
        current = _report(2, [_sim_result("headline", 1000, 1.0),
                              _sim_result("fresh", 1000, 1.0)])
        assert compare_reports(baseline, current).ok

    def test_invalid_threshold_rejected(self):
        baseline = _report(1, [])
        with pytest.raises(BenchReportError):
            compare_reports(baseline, baseline, threshold=0.0)

    def test_quick_and_full_reports_are_refused(self):
        baseline = _report(1, [_sim_result("headline", 1000, 1.0)])
        current = _report(2, [_sim_result("headline", 1000, 1.0)])
        current.quick = True
        with pytest.raises(BenchReportError, match="quick"):
            compare_reports(baseline, current)

    def test_different_budgets_are_reported_apart_not_diffed(self):
        base = _sim_result("headline", 10_000, 1.0)
        base.metadata["instructions"] = 6000
        # Ten times slower, but over a different budget: not a regression.
        cur = _sim_result("headline", 10_000, 10.0)
        cur.metadata["instructions"] = 1500
        comparison = compare_reports(_report(1, [base]), _report(2, [cur]))
        assert comparison.different_budgets == ["headline"]
        assert comparison.deltas == [] and comparison.regressions == []
        assert comparison.ok
        assert "budgets differ: headline" in comparison.render()

    def test_same_budget_digest_mismatch_fails(self):
        base = _sim_result("headline", 10_000, 1.0)
        cur = _sim_result("headline", 10_000, 1.0)
        base.stats_digest, cur.stats_digest = "a" * 64, "b" * 64
        comparison = compare_reports(_report(1, [base]), _report(2, [cur]))
        assert comparison.digest_mismatches == ["headline"]
        assert not comparison.ok
        assert "DIGEST MISMATCH" in comparison.render()

    def test_same_budget_equal_digests_are_diffed(self):
        base = _sim_result("headline", 10_000, 1.0)
        cur = _sim_result("headline", 10_000, 1.0)
        base.stats_digest = cur.stats_digest = "a" * 64
        comparison = compare_reports(_report(1, [base]), _report(2, [cur]))
        assert [delta.name for delta in comparison.deltas] == ["headline"]
        assert comparison.ok


class TestCli:
    def test_cli_list_mode(self, capsys):
        assert bench_main(["--quick", "--list"]) == 0
        out = capsys.readouterr().out
        assert "headline/gcc/register-file-cache" in out

    def test_cli_run_filter_and_compare_roundtrip(self, tmp_path, capsys):
        argv = ["--quick", "--repeats", "1", "--filter", "matrix/gcc/1-cycle",
                "--quiet", "--output-dir", str(tmp_path)]
        assert bench_main(argv) == 0
        assert bench_main(argv) == 0
        reports = sorted(tmp_path.glob("BENCH_*.json"))
        assert [p.name for p in reports] == ["BENCH_1.json", "BENCH_2.json"]
        capsys.readouterr()
        code = bench_main(["compare", str(reports[0]), str(reports[1]),
                           "--threshold", "0.9"])
        out = capsys.readouterr().out
        assert "perf gate verdict" in out
        assert code == 0

    def test_cli_compare_detects_regression(self, tmp_path, capsys):
        baseline = _report(1, [_sim_result("headline", 10_000, 1.0)])
        current = _report(2, [_sim_result("headline", 10_000, 10.0)])
        base_path = baseline.save(str(tmp_path))
        cur_path = current.save(str(tmp_path))
        assert bench_main(["compare", base_path, cur_path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_rejects_bad_repeats(self, capsys):
        assert bench_main(["--repeats", "0"]) == 2

    def test_cli_filter_matching_nothing_exits_two_without_a_report(
        self, tmp_path, capsys
    ):
        argv = ["--quick", "--filter", "zzz", "--output-dir", str(tmp_path)]
        assert bench_main(argv) == 2
        assert "error: no scenario name contains 'zzz'" in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_cli_list_honours_filter(self, capsys):
        assert bench_main(["--quick", "--list", "--filter", "matrix/swim/"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("matrix/swim/") for line in lines)

    def test_same_code_same_digest(self, tmp_path):
        """Two runs of the same scenario must agree on the stats digest."""
        scenario = with_budget(headline_scenario(quick=True), 200)
        runner = BenchmarkRunner(repeats=1, scenarios=[scenario])
        first = runner.run(index=1).scenarios[0].stats_digest
        second = runner.run(index=2).scenarios[0].stats_digest
        assert first == second

    def test_sweep_replay_and_live_agree_on_stats_digest(self):
        """The engine's sweep must reproduce every point's live run bit
        for bit: the digest over every point's statistics is the
        determinism guard for the trace-replay engine, and the ``live``
        scenario must digest the same."""
        import hashlib

        from repro.bench.scenarios import SweepScenario
        from repro.experiments.scheduler import run_simulation_point

        replay = SweepScenario(name="sweep/x/replay", profile="gcc",
                               instructions=400, use_trace_replay=True)
        live = SweepScenario(name="sweep/x/live", profile="gcc",
                             instructions=400, use_trace_replay=False)
        replay_out = replay.run()
        live_out = live.run()
        reference = hashlib.sha256()
        for point in replay.points():
            payload = json.dumps(
                run_simulation_point(point).to_dict(),
                sort_keys=True,
                separators=(",", ":"),
                default=str,
            )
            reference.update(payload.encode("utf-8"))
        assert replay_out["points"] == live_out["points"] == 16
        assert replay_out["stats_digest"] == reference.hexdigest()
        assert replay_out["stats_digest"] == live_out["stats_digest"]
        assert replay_out["summary"]["traces_recorded"] == 1

    def test_sweep_result_in_report(self):
        from repro.bench.scenarios import SweepScenario

        sweep = SweepScenario(name="sweep/x/replay", profile="gcc",
                              instructions=300, use_trace_replay=True,
                              headline_sweep=True)
        runner = BenchmarkRunner(repeats=1, scenarios=[sweep])
        report = runner.run(index=1)
        [result] = report.scenarios
        assert result.kind == "sweep"
        assert result.operations == 16
        assert result.operations_per_second > 0
        assert result.rate == result.operations_per_second
        assert result.metadata["headline_sweep"] is True
        assert result.metadata["points_per_minute"] > 0


class TestSampledSweepScenario:
    def _scenario(self):
        from repro.bench.scenarios import SampledSweepScenario

        return SampledSweepScenario(
            name="sweep/gcc/sampled-vs-exact",
            profile="gcc",
            instructions=2000,
            sample="500:100:100",
            architectures=("mono-1c",),
        )

    def test_outcome_reports_speedup_and_interval(self):
        outcome = self._scenario().run()
        assert outcome["points"] == 1  # one architecture, measured both ways
        assert outcome["summary"]["architectures"] == ["mono-1c"]
        assert outcome["summary"]["exact_points"] == 1
        assert outcome["summary"]["sampled_points"] == 1
        assert outcome["per_point_speedup"] > 0
        assert outcome["sampling"]["stride"] == 500
        assert outcome["exact_seconds"] > 0 and outcome["sampled_seconds"] > 0

    def test_quick_and_full_share_the_gate_name(self):
        from repro.bench.scenarios import sampled_sweep_scenarios

        (quick,) = sampled_sweep_scenarios(quick=True)
        (full,) = sampled_sweep_scenarios(quick=False)
        assert quick.name == full.name == "sweep/gcc/sampled-vs-exact"
        # Quick mode shrinks the architecture set, never the stream: the
        # stride plan needs the full instruction budget to place windows.
        assert len(quick.architectures) < len(full.architectures)
        assert quick.instructions == full.instructions

    def test_deterministic_digest(self):
        assert (self._scenario().run()["stats_digest"]
                == self._scenario().run()["stats_digest"])

    def test_runner_copies_sampling_metadata(self):
        runner = BenchmarkRunner(repeats=1, scenarios=[self._scenario()])
        report = runner.run(index=1)
        (result,) = report.scenarios
        assert result.kind == "sweep"
        for field in ("exact_seconds", "sampled_seconds",
                      "per_point_speedup", "sampling", "summary"):
            assert field in result.metadata


class TestReportShape:
    """Every kind's report record, pinned key by key: ``BENCH_<n>.json``
    reports are compared across commits, so a refactor of the runner
    must not change what each scenario writes."""

    _RATES = {"operations", "operations_per_second"}
    _BASE = {"kind", "metadata", "name", "repeats", "wall_seconds"}
    _SIM = {"cycles", "cycles_per_second", "instructions", "instructions_per_second"}
    _ENGINE_SUMMARY = {
        "cached", "elapsed_seconds", "executed",
        "requested", "shared_inflight",
        "traces_recorded", "traces_reused", "unique",
    }
    _SERVICE = {"benchmarks", "figure", "instructions", "points_per_minute",
                "transport", "warmup_instructions"}
    _SWEEP = {"architectures", "headline_sweep", "instructions", "points",
              "points_per_minute", "profile", "register_budgets",
              "use_trace_replay"}

    #: name -> (kind, fields that are set, metadata keys, nested keys).
    EXPECTED = {
        "headline/gcc/register-file-cache": (
            "simulation", _BASE | _SIM | {"stats_digest"},
            {"architecture", "collect_occupancy", "headline", "instructions",
             "profile"},
            {},
        ),
        "sweep/gcc/figure-matrix-replay": (
            "sweep", _BASE | _RATES | {"stats_digest"},
            _SWEEP | {"scheduler_summary"},
            {"scheduler_summary": _ENGINE_SUMMARY},
        ),
        "sweep/gcc/figure-matrix-live": (
            "sweep", _BASE | _RATES | {"stats_digest"},
            _SWEEP | {"scheduler_summary"},
            {"scheduler_summary": {"executed"}},
        ),
        "sweep/gcc/sampled-vs-exact": (
            "sweep", _BASE | _RATES | {"stats_digest"},
            {"architectures", "exact_seconds", "instructions",
             "per_point_speedup", "points_per_minute", "profile",
             "register_budget", "sample", "sampled_seconds", "sampling",
             "summary"},
            {
                "sampling": {"confidence", "max_windows", "min_windows",
                             "stride", "target_half_width", "warmup",
                             "window"},
                "summary": {"architectures", "exact_points", "sampled_points"},
            },
        ),
        "service_throughput/figure6": (
            "service", _BASE | _RATES | {"stats_digest"},
            _SERVICE | {"job_counters"},
            {"job_counters": _ENGINE_SUMMARY},
        ),
        "resilience_overhead/figure6": (
            "service", _BASE | _RATES | {"stats_digest"},
            _SERVICE | {"job_counters", "passes"},
            {"job_counters": {"disabled_wall_seconds",
                              "instrumented_over_disabled",
                              "instrumented_wall_seconds", "seam_overhead",
                              "threshold"}},
        ),
        "obs_overhead/figure6": (
            "service", _BASE | _RATES | {"stats_digest"},
            _SERVICE | {"job_counters", "passes"},
            {"job_counters": {"bare_wall_seconds", "full_over_bare",
                              "full_wall_seconds", "pairs",
                              "telemetry_overhead", "threshold"}},
        ),
        "component/pseudo_lru_operations": ("component", _BASE | _RATES, set(), {}),
    }

    def _tiny_matrix(self, monkeypatch):
        from repro.bench import scenarios as sc

        def one_pass(self, **_):
            return {"points": 3, "digest": "d" * 64, "wall_seconds": 1.0,
                    "seam_seconds": 0.0, "sink_seconds": 0.0}

        for overhead in (sc.ResilienceOverheadScenario, sc.ObsOverheadScenario):
            monkeypatch.setattr(overhead, "_one_pass", one_pass)
        plan = dict(figure="figure6", instructions=200, warmup_instructions=50,
                    benchmarks=("gcc",))
        return [
            with_budget(headline_scenario(quick=True), 200),
            sc.SweepScenario(name="sweep/gcc/figure-matrix-replay",
                             profile="gcc", instructions=300,
                             use_trace_replay=True),
            sc.SweepScenario(name="sweep/gcc/figure-matrix-live",
                             profile="gcc", instructions=300,
                             use_trace_replay=False),
            sc.SampledSweepScenario(name="sweep/gcc/sampled-vs-exact",
                                    profile="gcc", instructions=2000,
                                    sample="500:100:100",
                                    architectures=("mono-1c",)),
            sc.ServiceScenario(name="service_throughput/figure6", **plan),
            sc.ResilienceOverheadScenario(name="resilience_overhead/figure6",
                                          **plan),
            sc.ObsOverheadScenario(name="obs_overhead/figure6", **plan),
            sc.ComponentScenario(name="component/pseudo_lru_operations",
                                 kernel=sc.KERNELS["pseudo_lru_operations"]),
        ]

    def test_each_kind_writes_the_pinned_record(self, monkeypatch, tmp_path):
        scenarios = self._tiny_matrix(monkeypatch)
        report = BenchmarkRunner(repeats=1, scenarios=scenarios).run(index=1)
        loaded = BenchReport.load(report.save(str(tmp_path)))
        assert [r.name for r in loaded.scenarios] == list(self.EXPECTED)
        for entry in loaded.to_dict()["scenarios"]:
            kind, fields, metadata, nested = self.EXPECTED[entry["name"]]
            assert entry["kind"] == kind, entry["name"]
            assert set(entry) == set(ScenarioResult.__dataclass_fields__)
            assert {k for k, v in entry.items() if v is not None} == fields, entry["name"]
            assert set(entry["metadata"]) == metadata, entry["name"]
            for key, keys in nested.items():
                assert set(entry["metadata"][key]) == keys, (entry["name"], key)
