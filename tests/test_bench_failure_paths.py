"""Failure-path coverage for ``python -m repro.bench compare``.

The perf gate's *failure* behaviour is what CI relies on; these tests
pin the exit codes for every way a comparison can go wrong: regression,
lost scenario coverage, malformed report files, and mismatched schema
versions.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.report import BenchReport, ScenarioResult


def _report(index: int, scenarios: dict[str, float],
            calibration: float = 1000.0) -> BenchReport:
    return BenchReport(
        index=index,
        created="2026-07-30T00:00:00+00:00",
        environment={},
        calibration_score=calibration,
        scenarios=[
            ScenarioResult(
                name=name,
                kind="simulation",
                wall_seconds=1.0,
                repeats=1,
                cycles=int(rate),
                cycles_per_second=rate,
            )
            for name, rate in scenarios.items()
        ],
    )


@pytest.fixture()
def baseline_path(tmp_path):
    return _report(1, {"sim": 10_000.0, "extra": 5_000.0}).save(str(tmp_path / "a"))


class TestCompareExitCodes:
    def test_regression_exits_one(self, tmp_path, baseline_path, capsys):
        current = _report(2, {"sim": 2_000.0, "extra": 5_000.0}).save(str(tmp_path / "b"))
        assert main(["compare", baseline_path, current]) == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSION" in out

    def test_lost_scenario_coverage_exits_one(self, tmp_path, baseline_path, capsys):
        current = _report(2, {"sim": 10_000.0}).save(str(tmp_path / "b"))
        assert main(["compare", baseline_path, current]) == 1
        out = capsys.readouterr().out
        assert "MISSING from current report" in out
        assert "verdict: LOST COVERAGE" in out

    def test_matching_reports_exit_zero(self, tmp_path, baseline_path, capsys):
        current = _report(2, {"sim": 10_500.0, "extra": 5_100.0}).save(str(tmp_path / "b"))
        assert main(["compare", baseline_path, current]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_digest_mismatch_exits_one(self, tmp_path, baseline_path, capsys):
        current = _report(2, {"sim": 10_000.0, "extra": 5_000.0})
        current.scenarios[0].stats_digest = "f" * 64
        baseline = BenchReport.load(baseline_path)
        baseline.scenarios[0].stats_digest = "0" * 64
        base = baseline.save(str(tmp_path / "b"))
        assert main(["compare", base, current.save(str(tmp_path))]) == 1
        assert "DIGEST MISMATCH" in capsys.readouterr().out

    def test_quick_against_full_exits_two(self, tmp_path, baseline_path, capsys):
        current = _report(2, {"sim": 10_000.0, "extra": 5_000.0})
        current.quick = True
        assert main(["compare", baseline_path, current.save(str(tmp_path))]) == 2
        assert "quick" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, baseline_path, capsys):
        mangled = tmp_path / "mangled.json"
        mangled.write_text("{definitely not json", encoding="utf-8")
        assert main(["compare", baseline_path, str(mangled)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, baseline_path, capsys):
        assert main(["compare", baseline_path, str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_schema_mismatch_exits_two(self, tmp_path, baseline_path, capsys):
        future = _report(2, {"sim": 10_000.0, "extra": 5_000.0})
        payload = future.to_dict()
        payload["schema"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["compare", baseline_path, str(path)]) == 2
        err = capsys.readouterr().err
        assert "schema" in err

    def test_non_positive_threshold_exits_two(self, tmp_path, baseline_path, capsys):
        current = _report(2, {"sim": 10_000.0, "extra": 5_000.0}).save(str(tmp_path / "b"))
        assert main(["compare", baseline_path, current, "--threshold", "0"]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_raw_mode_skips_calibration_normalization(self, tmp_path, capsys):
        # Same raw rates but wildly different calibration: normalized
        # comparison flags a regression, raw comparison passes.
        slow_machine = _report(1, {"sim": 10_000.0}, calibration=100.0).save(
            str(tmp_path / "a")
        )
        fast_machine = _report(2, {"sim": 10_000.0}, calibration=1_000.0).save(
            str(tmp_path / "b")
        )
        assert main(["compare", slow_machine, fast_machine]) == 1
        capsys.readouterr()
        assert main(["compare", slow_machine, fast_machine, "--raw"]) == 0
