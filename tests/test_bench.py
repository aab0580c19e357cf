"""Tests for the bench harness (``python -m repro.bench --base REV``).

The verdict is a pure function; the runner is driven end to end through
a stub ``perfbench/run.py`` in a throwaway repository (``bench_stub``),
so every subprocess answers at once.
"""

from __future__ import annotations

import json
import math
import subprocess
from pathlib import Path

import pytest

from bench_stub import steady, stub_repo
from repro.bench import runner
from repro.bench.__main__ import main as bench_main
from repro.bench.verdict import judge, spread
from repro.errors import SimulationError


class TestVerdict:
    def test_within_bound_is_ok(self):
        verdict = judge([10.0, 10.2, 9.9], [11.0, 11.2, 10.9], "lower", 0.25)
        assert verdict["status"] == "ok"
        assert verdict["worse_by"] == 0.1

    def test_an_improvement_is_ok(self):
        assert judge([10.0, 10.0, 10.0], [5.0, 5.0, 5.0], "lower", 0.25)["worse_by"] == -0.5
        assert judge([60.0, 60.0, 60.0], [90.0, 90.0, 90.0], "higher", 0.25)["status"] == "ok"

    def test_tight_base_resolves_a_lower_is_better_regression(self):
        verdict = judge([10.0, 10.2, 9.9], [15.0, 9.0, 15.5], "lower", 0.25)
        assert verdict["status"] == "regressed"
        assert verdict["base_spread"] <= 0.25

    def test_tight_base_resolves_a_higher_is_better_regression(self):
        verdict = judge([60.0, 61.0, 59.0], [40.0, 42.0, 65.0], "higher", 0.25)
        assert verdict["status"] == "regressed"
        assert verdict["worse_by"] == 0.3

    def test_wide_base_with_overlapping_runs_is_unresolved(self):
        verdict = judge([5.0, 10.0, 20.0], [7.0, 14.0, 30.0], "lower", 0.25)
        assert verdict["base_spread"] == 1.5
        assert verdict["status"] == "unresolved"

    def test_wide_base_is_resolved_when_every_change_run_is_worse(self):
        assert judge([5.0, 10.0, 20.0], [21.0, 25.0, 30.0], "lower", 0.25)["status"] == "regressed"
        assert judge([5.0, 10.0, 20.0], [1.0, 4.0, 4.5], "higher", 0.25)["status"] == "regressed"

    def test_a_side_without_runs_is_missing(self):
        assert judge([], [1.0], "lower", 0.25) == {"status": "missing"}
        assert judge([1.0], [], "higher", 0.25) == {"status": "missing"}

    def test_spread_is_interquartile_range_over_median(self):
        # Exclusive quartiles: the extremes of three runs, and the means
        # of the two lowest and of the two highest of five.
        assert spread([1.0, 2.0, 3.0]) == 1.0
        assert spread([1.0, 2.0, 2.0, 3.0, 5.0]) == 1.25
        assert spread([4.0]) == 0.0


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """Run the CLI in a stub repository without the overhead gates;
    returns ``(exit status, report or None)``."""
    monkeypatch.setattr(runner, "overhead_gates", lambda: [])

    def run(base, change, workloads=("point-live",)):
        repo = stub_repo(tmp_path, base, change, workloads)
        monkeypatch.chdir(repo)
        out = tmp_path / "out"
        status = bench_main(["--base", "HEAD", "--output-dir", str(out)])
        reports = sorted(out.glob("BENCH_*.json"))
        return status, json.loads(reports[-1].read_text()) if reports else None

    return run


def _statuses(report, workload="point-live"):
    return {name: verdict["status"]
            for name, verdict in report["workloads"][workload]["verdicts"].items()}


class TestRunner:
    def test_a_change_within_bound_is_ok(self, bench, capsys):
        status, report = bench({"point-live": steady()},
                               {"point-live": steady(sim_kips=(55.0, 57.0, 54.0))})
        assert status == 0
        assert report["schema"] == 2 and report["ok"] and report["failures"] == []
        assert _statuses(report) == {"sim_kips": "ok", "latency_p50_ms": "ok"}
        section = report["workloads"]["point-live"]
        assert section["medians"] == {"base": {"sim_kips": 60.0, "latency_p50_ms": 10.0},
                                      "change": {"sim_kips": 55.0, "latency_p50_ms": 10.0}}
        assert section["per_layer"] == {"base": {"trace_overhead": 1.1},
                                        "change": {"trace_overhead": 1.1}}
        assert section["failed_share"] == {"base": 0.0, "change": 0.0}
        assert "bench verdict: OK" in capsys.readouterr().out

    def test_pairs_alternate_which_side_goes_first(self, bench):
        _, report = bench({"point-live": steady()}, {"point-live": steady()})
        runs = report["workloads"]["point-live"]["runs"]
        assert [(run["side"], run["seed"], run["trace"]) for run in runs] == [
            ("base", 1, 0), ("change", 1, 0),
            ("change", 2, 0), ("base", 2, 0),
            ("base", 3, 0), ("change", 3, 0),
            ("change", 4, 0), ("base", 4, 0),
            ("base", 5, 0), ("change", 5, 0),
            ("change", 1, 1), ("base", 1, 1),
        ]
        assert all(run["exit"] == 0 and run["ok"] for run in runs)

    def test_a_run_reports_its_own_peak_memory(self, bench):
        # A child's ru_maxrss starts from its parent's peak; this test
        # process (pytest and the package) peaks far above the stub.
        import resource

        _, report = bench({"point-live": steady()}, {"point-live": steady()})
        own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for run in report["workloads"]["point-live"]["runs"]:
            if not run["trace"]:
                assert run["metrics"]["peak_rss_mb"] < own_peak_mb / 2

    def test_a_resolved_lower_is_better_regression_fails(self, bench):
        status, report = bench({"point-live": steady()},
                               {"point-live": steady(latency=(15.0, 15.3, 14.8))})
        assert status == 1
        assert _statuses(report)["latency_p50_ms"] == "regressed"
        assert report["failures"] == ["point-live latency_p50_ms: regressed"]

    def test_a_resolved_higher_is_better_regression_fails(self, bench):
        status, report = bench({"point-live": steady()},
                               {"point-live": steady(sim_kips=(30.0, 31.0, 29.0))})
        assert status == 1
        assert _statuses(report)["sim_kips"] == "regressed"

    def test_a_wide_base_spread_is_unresolved_and_passes(self, bench, capsys):
        status, report = bench({"point-live": steady(latency=(5.0, 10.0, 20.0))},
                               {"point-live": steady(latency=(7.0, 14.0, 30.0))})
        assert status == 0
        assert _statuses(report)["latency_p50_ms"] == "unresolved"
        assert "unresolved" in capsys.readouterr().out

    @pytest.mark.parametrize("fault", [{"exit": 1}, {"correct": False}])
    def test_a_failed_or_incorrect_run_fails(self, bench, fault):
        status, report = bench({"point-live": steady()},
                               {"point-live": steady(**fault)})
        assert status == 1
        assert not report["ok"]
        assert "point-live change seed 1: " + (
            "exit 1" if "exit" in fault else "correct is false") in report["failures"]
        assert _statuses(report) == {"sim_kips": "missing", "latency_p50_ms": "missing"}

    def test_a_missing_workload_fails(self, bench):
        plan = {"point-live": steady()}
        status, report = bench(plan, plan, workloads=("point-live", "ghost"))
        assert status == 1
        assert _statuses(report) == {"sim_kips": "ok", "latency_p50_ms": "ok"}
        assert _statuses(report, "ghost") == {"sim_kips": "missing",
                                              "latency_p50_ms": "missing"}
        ghost = report["workloads"]["ghost"]["runs"][0]
        assert ghost["exit"] == 1 and ghost["stderr"] == ["error: unknown workload ghost"]

    def test_a_higher_failed_operation_share_fails(self, bench):
        status, report = bench({"point-live": steady()},
                               {"point-live": steady(failed=1)})
        assert status == 1
        assert report["workloads"]["point-live"]["failed_share"]["change"] == 0.1
        assert any("failed-operation share" in failure for failure in report["failures"])

    def test_a_bad_base_exits_two_without_a_report(self, tmp_path, monkeypatch, capsys):
        plan = {"point-live": steady()}
        monkeypatch.chdir(stub_repo(tmp_path, plan, plan))
        assert bench_main(["--base", "no-such-rev", "--output-dir", str(tmp_path)]) == 2
        assert "error: --base 'no-such-rev' is not a commit" in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_an_unreadable_benchmark_json_exits_two(self, tmp_path, monkeypatch, capsys):
        plan = {"point-live": steady()}
        repo = stub_repo(tmp_path, plan, plan)
        (repo / "BENCHMARK.json").write_text("{")
        monkeypatch.chdir(repo)
        assert bench_main(["--base", "HEAD", "--output-dir", str(tmp_path)]) == 2
        assert "BENCHMARK.json" in capsys.readouterr().err

    def test_reports_continue_the_committed_numbering(self, bench, tmp_path):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "BENCH_7.json").write_text("{}")
        _, report = bench({"point-live": steady()}, {"point-live": steady()})
        assert report["index"] == 8


class TestVerdictEdges:
    def test_a_change_exactly_on_the_bound_is_ok(self):
        verdict = judge([10.0, 10.0, 10.0], [12.5, 12.5, 12.5], "lower", 0.25)
        assert verdict["worse_by"] == 0.25
        assert verdict["status"] == "ok"

    def test_medians_are_judged_not_means(self):
        # One wild change run moves the mean far past the bound; the
        # median does not move.
        verdict = judge([10.0, 10.0, 10.0], [10.0, 10.0, 100.0], "lower", 0.25)
        assert verdict["change_median"] == 10.0
        assert verdict["status"] == "ok"

    def test_the_verdict_carries_both_medians(self):
        verdict = judge([1.0, 3.0, 2.0], [4.0, 6.0, 5.0], "higher", 0.25)
        assert (verdict["base_median"], verdict["change_median"]) == (2.0, 5.0)
        assert verdict["worse_by"] == -1.5

    def test_a_higher_is_better_loss_is_signed_worse(self):
        assert judge([100.0], [90.0], "higher", 0.25)["worse_by"] == 0.1
        assert judge([100.0], [110.0], "lower", 0.25)["worse_by"] == 0.1

    def test_a_single_run_per_side_resolves_a_regression(self):
        verdict = judge([10.0], [20.0], "lower", 0.25)
        assert verdict["base_spread"] == 0.0
        assert verdict["status"] == "regressed"

    def test_a_zero_base_median_with_no_difference_is_ok(self):
        verdict = judge([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.25)
        assert verdict["worse_by"] == 0.0
        assert verdict["status"] == "ok"

    def test_a_zero_base_median_with_a_worse_change_is_infinitely_worse(self):
        verdict = judge([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "lower", 0.25)
        assert verdict["worse_by"] == math.inf
        assert verdict["base_spread"] == math.inf
        # Every change run is worse than every base run.
        assert verdict["status"] == "regressed"

    def test_a_zero_base_median_with_a_better_change_is_ok(self):
        verdict = judge([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "higher", 0.25)
        assert verdict["worse_by"] == -math.inf
        assert verdict["status"] == "ok"

    def test_spread_of_identical_runs_is_zero(self):
        assert spread([3.0, 3.0, 3.0, 3.0]) == 0.0

    def test_spread_around_a_zero_median_is_infinite(self):
        assert spread([-1.0, 0.0, 1.0]) == math.inf


def _write_spec(tmp_path, spec):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    return str(tmp_path)


_SPEC = {
    "run_seconds": 5,
    "workloads": [{"name": "point-live"}],
    "end_to_end": [{"name": "sim_kips", "better": "higher", "bound": 0.25}],
}


class TestLoadSpec:
    def test_a_valid_spec_is_returned_whole(self, tmp_path):
        assert runner.load_spec(_write_spec(tmp_path, _SPEC)) == _SPEC

    def test_a_missing_file_is_a_bench_error(self, tmp_path):
        with pytest.raises(runner.BenchError, match="cannot read"):
            runner.load_spec(str(tmp_path))

    @pytest.mark.parametrize("drop", ["run_seconds", "workloads", "end_to_end"])
    def test_a_missing_key_is_a_bench_error(self, tmp_path, drop):
        spec = {key: value for key, value in _SPEC.items() if key != drop}
        with pytest.raises(runner.BenchError, match="cannot read"):
            runner.load_spec(_write_spec(tmp_path, spec))

    def test_a_non_numeric_bound_is_a_bench_error(self, tmp_path):
        spec = dict(_SPEC, end_to_end=[{"name": "x", "better": "lower", "bound": "wide"}])
        with pytest.raises(runner.BenchError, match="cannot read"):
            runner.load_spec(_write_spec(tmp_path, spec))

    def test_no_workload_is_a_bench_error(self, tmp_path):
        with pytest.raises(runner.BenchError, match="no workload"):
            runner.load_spec(_write_spec(tmp_path, dict(_SPEC, workloads=[])))

    def test_a_metric_without_a_direction_is_a_bench_error(self, tmp_path):
        spec = dict(_SPEC, end_to_end=[{"name": "x", "better": "sideways", "bound": 0.1}])
        with pytest.raises(runner.BenchError, match="neither lower nor higher"):
            runner.load_spec(_write_spec(tmp_path, spec))


class TestReportIndex:
    def test_an_empty_directory_starts_at_one(self, tmp_path):
        assert runner.next_report_index([str(tmp_path)]) == 1

    def test_the_highest_index_across_directories_wins(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        (first / "BENCH_3.json").write_text("{}")
        (second / "BENCH_11.json").write_text("{}")
        (second / "BENCH_2.json").write_text("{}")
        assert runner.next_report_index([str(first), str(second)]) == 12

    def test_other_names_and_missing_directories_are_ignored(self, tmp_path):
        for name in ("BENCH_9.json.bak", "BENCH_x.json", "bench_8.json", "BENCH_7.txt"):
            (tmp_path / name).write_text("{}")
        assert runner.next_report_index([str(tmp_path / "absent"), str(tmp_path)]) == 1


class TestEnvironment:
    def test_environment_fingerprint_fields(self):
        fingerprint = runner.environment_fingerprint()
        assert set(fingerprint) == {"repro_version", "python_version",
                                    "python_implementation", "platform",
                                    "machine", "cpu_count"}
        assert fingerprint["python_version"].count(".") == 2


def _run(side, seed, metrics, trace=0, ok=True, exit=0, attempted=10, failed=0):
    return {"side": side, "seed": seed, "trace": trace, "ok": ok, "exit": exit,
            "correct": ok or exit != 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


_LATENCY_SPEC = {"end_to_end": [{"name": "latency_p50_ms", "better": "lower",
                                 "bound": 0.25}]}


class TestSummarise:
    def test_traced_runs_are_recorded_but_not_judged(self):
        runs = [_run(side, 1, {"latency_p50_ms": 10.0}) for side in runner.SIDES]
        runs += [_run(side, 1, {"latency_p50_ms": 99.0, "trace_overhead": 1.2}, trace=1)
                 for side in runner.SIDES]
        section, failures = runner.summarise("w", runs, _LATENCY_SPEC)
        assert failures == []
        assert section["medians"]["change"] == {"latency_p50_ms": 10.0}
        assert section["per_layer"]["base"]["trace_overhead"] == 1.2

    def test_a_failed_traced_run_is_named_as_traced(self):
        runs = [_run(side, 1, {"latency_p50_ms": 10.0}) for side in runner.SIDES]
        runs.append(_run("base", 1, {}, trace=1, ok=False, exit=3))
        section, failures = runner.summarise("w", runs, _LATENCY_SPEC)
        assert failures == ["w base seed 1 traced: exit 3"]
        assert "base" not in section["per_layer"]

    def test_a_metric_no_run_reports_is_missing(self):
        runs = [_run(side, 1, {"other": 1.0}) for side in runner.SIDES]
        section, failures = runner.summarise("w", runs, _LATENCY_SPEC)
        assert section["verdicts"]["latency_p50_ms"]["status"] == "missing"
        assert failures == ["w latency_p50_ms: missing"]
        assert section["medians"] == {"base": {}, "change": {}}

    def test_a_lower_failed_operation_share_passes(self):
        runs = [_run("base", 1, {"latency_p50_ms": 10.0}, failed=2),
                _run("change", 1, {"latency_p50_ms": 10.0}, failed=1)]
        section, failures = runner.summarise("w", runs, _LATENCY_SPEC)
        assert failures == []
        assert section["failed_share"] == {"base": 0.2, "change": 0.1}

    def test_no_attempted_operation_has_no_share(self):
        runs = [_run(side, 1, {"latency_p50_ms": 10.0}, attempted=None, failed=None)
                for side in runner.SIDES]
        section, failures = runner.summarise("w", runs, _LATENCY_SPEC)
        assert section["failed_share"] == {"base": None, "change": None}
        assert failures == []


class _Gate:
    def __init__(self, name, outcome=None, error=None):
        self.name, self._outcome, self._error = name, outcome, error

    def run(self):
        if self._error:
            raise SimulationError(self._error)
        return self._outcome


class TestRunGates:
    def test_each_gate_outcome_is_kept_and_failures_listed(self, monkeypatch):
        monkeypatch.setattr(runner, "overhead_gates", lambda: [
            _Gate("fast", outcome={"overhead": 1.01, "bound": 1.05}),
            _Gate("slow", error="overhead 2.000x exceeds the 1.05x bound"),
        ])
        outcomes, failures = runner.run_gates()
        assert outcomes == {
            "fast": {"ok": True, "overhead": 1.01, "bound": 1.05},
            "slow": {"ok": False, "error": "overhead 2.000x exceeds the 1.05x bound"},
        }
        assert failures == ["gate slow: overhead 2.000x exceeds the 1.05x bound"]

    def test_an_error_outside_the_package_is_not_swallowed(self, monkeypatch):
        class Broken:
            name = "broken"

            def run(self):
                raise KeyError("bug")

        monkeypatch.setattr(runner, "overhead_gates", lambda: [Broken()])
        with pytest.raises(KeyError):
            runner.run_gates()


class TestRender:
    def _report(self, verdicts, gates=None, failures=()):
        return {"base": {"rev": "HEAD~1", "sha": "0123456789abcdef"}, "pairs": 5,
                "workloads": {"point-live": {"verdicts": verdicts}},
                "gates": gates or {}, "failures": list(failures),
                "ok": not failures}

    def test_a_judged_metric_shows_medians_and_percentages(self):
        text = runner.render(self._report({"latency_p50_ms": {
            "status": "regressed", "base_median": 10.0, "change_median": 13.0,
            "worse_by": 0.3, "bound": 0.25, "base_spread": 0.05}},
            failures=["point-live latency_p50_ms: regressed"]))
        lines = text.splitlines()
        assert lines[0] == "base HEAD~1 (0123456789ab) -> working tree, 5 pairs per workload"
        assert "regressed" in lines[1] and "10 -> 13" in lines[1]
        assert "(worse by +30.0%, bound 25%, base spread 5.0%)" in lines[1]
        assert lines[-2] == "FAIL: point-live latency_p50_ms: regressed"
        assert lines[-1] == "bench verdict: FAIL"

    def test_a_missing_metric_and_gates_are_listed(self):
        text = runner.render(self._report(
            {"sim_kips": {"status": "missing"}},
            gates={"obs_overhead": {"ok": True, "overhead": 1.01, "bound": 1.05},
                   "resilience_overhead": {"ok": False, "error": "diverged"}}))
        lines = text.splitlines()
        assert lines[1].split() == ["point-live", "sim_kips", "missing"]
        assert "  gate obs_overhead: 1.01x (bound 1.05x)" in lines
        assert "  gate resilience_overhead: FAILED" in lines
        assert lines[-1] == "bench verdict: OK"


class TestRunPerfbench:
    def _fake(self, monkeypatch, stdout="", stderr="", returncode=0, raises=None):
        seen = {}

        def fake_run(command, **kwargs):
            seen.update(command=command, **kwargs)
            if raises is not None:
                raise raises
            return subprocess.CompletedProcess(command, returncode, stdout, stderr)

        monkeypatch.setattr(runner.subprocess, "run", fake_run)
        return seen

    def test_the_run_gets_its_arguments_and_no_pythonpath(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", "/elsewhere")
        result = json.dumps({"correct": True, "attempted": 4, "failed": 0,
                             "metrics": {"sim_kips": {"value": 50.0}}})
        seen = self._fake(monkeypatch, stdout=json.dumps({"n": 1}) + "\n" + result)
        record = runner.run_perfbench("/tree", "point-live", 2, 40.0, 0)
        assert seen["command"][-8:] == ["--workload", "point-live", "--seed", "2",
                                        "--seconds", "40.0", "--trace", "0"]
        assert seen["cwd"] == "/tree" and "PYTHONPATH" not in seen["env"]
        assert seen["timeout"] == 1200.0
        assert record["ok"] and record["exit"] == 0
        assert record["metrics"] == {"sim_kips": 50.0}
        assert record["details"] == {"n": 1}
        assert (record["attempted"], record["failed"]) == (4, 0)

    def test_output_that_is_not_a_result_is_not_ok(self, monkeypatch):
        self._fake(monkeypatch, stdout="Traceback\nnot json\n")
        record = runner.run_perfbench("/tree", "point-live", 1, 5.0, 0)
        assert record["exit"] == 0 and not record["ok"]
        assert record["metrics"] == {} and record["correct"] is None

    def test_a_failed_run_keeps_the_tail_of_its_stderr(self, monkeypatch):
        stderr = "\n".join(f"line {n}" for n in range(8))
        self._fake(monkeypatch, returncode=2, stderr=stderr)
        record = runner.run_perfbench("/tree", "point-live", 1, 5.0, 1)
        assert record["exit"] == 2 and not record["ok"]
        assert record["stderr"] == [f"line {n}" for n in range(3, 8)]

    def test_a_run_past_its_time_limit_is_a_timeout(self, monkeypatch):
        self._fake(monkeypatch, raises=subprocess.TimeoutExpired("run.py", 600))
        record = runner.run_perfbench("/tree", "point-live", 3, 5.0, 0)
        assert record["exit"] == "timeout" and record["ok"] is False
        assert record["seed"] == 3 and "metrics" not in record


class TestBuildTrees:
    def test_each_side_runs_its_own_src_beside_one_harness(self, tmp_path):
        repo = stub_repo(tmp_path, {"point-live": steady()},
                         {"point-live": steady(latency=(20.0, 20.0, 20.0))})
        (repo / "perfbench" / "__pycache__").mkdir()
        (repo / "perfbench" / "__pycache__" / "stale.pyc").write_bytes(b"")
        (repo / "perfbench" / ".perfbench-cache").mkdir()
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                             capture_output=True, text=True).stdout.strip()
        trees = runner.build_trees(str(repo), sha, str(tmp_path / "trees"))
        assert set(trees) == {"base", "change"}
        plans = {side: json.loads((Path(tree) / "src" / "stub.json").read_text())
                 for side, tree in trees.items()}
        assert plans["base"]["point-live"]["metrics"]["latency_p50_ms"] == [10.0, 10.2, 9.9]
        assert plans["change"]["point-live"]["metrics"]["latency_p50_ms"] == [20.0] * 3
        for tree in map(Path, trees.values()):
            assert (tree / "BENCHMARK.json").read_text() == (repo / "BENCHMARK.json").read_text()
            assert not (tree / "perfbench" / "__pycache__" / "stale.pyc").exists()
            assert not (tree / "perfbench" / ".perfbench-cache").exists()
            assert list((tree / "perfbench" / "__pycache__").glob("run.*.pyc"))


class TestCli:
    def test_base_is_required(self, capsys):
        with pytest.raises(SystemExit) as raised:
            bench_main([])
        assert raised.value.code == 2
        assert "--base" in capsys.readouterr().err

    def test_the_report_names_both_sides(self, bench, tmp_path):
        _, report = bench({"point-live": steady()},
                          {"point-live": steady(sim_kips=(58.0, 58.0, 58.0))})
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path / "repo",
                              check=True, capture_output=True, text=True).stdout.strip()
        assert report["base"] == {"rev": "HEAD", "sha": head}
        assert report["change"] == {"sha": head, "src_dirty": True}
        assert report["pairs"] == runner.PAIRS and report["run_seconds"] == 5
        assert set(report["environment"]) >= {"repro_version", "cpu_count"}

    def test_an_unwritable_output_dir_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner, "overhead_gates", lambda: [])
        plan = {"point-live": steady()}
        monkeypatch.chdir(stub_repo(tmp_path, plan, plan))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert bench_main(["--base", "HEAD", "--output-dir", str(blocker)]) == 2
        assert "error: cannot write report" in capsys.readouterr().err
