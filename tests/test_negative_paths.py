"""Negative-path tests: unknown suites/benchmarks must fail loudly.

A typo in a benchmark filter or suite name must surface as a library
error (:class:`ConfigurationError` / :class:`WorkloadError`) carrying
the offending name — and reach the user through the CLI with exit code
2, never as a silent fallback or a bare traceback.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import main as runner_main
from repro.workloads.profiles import get_profile
from repro.workloads.spec_suites import suite_for, suite_members


class TestLibraryErrors:
    def test_suite_for_unknown_benchmark_names_it(self):
        with pytest.raises(WorkloadError, match="'doom3'"):
            suite_for("doom3")

    def test_suite_members_unknown_suite_names_it(self):
        with pytest.raises(WorkloadError, match="'web'"):
            suite_members("web")

    def test_get_profile_unknown_benchmark_names_it(self):
        with pytest.raises(WorkloadError, match="'nosuchbench'"):
            get_profile("nosuchbench")

    def test_settings_unknown_benchmark_filter_names_it(self):
        settings = ExperimentSettings(benchmarks=["gcc", "nosuchbench"])
        with pytest.raises(ConfigurationError, match="nosuchbench"):
            settings.suite("int")

    def test_settings_empty_filter_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="empty"):
            ExperimentSettings(benchmarks=[])

    def test_settings_filter_excluding_a_whole_suite(self):
        settings = ExperimentSettings(benchmarks=["swim"])
        with pytest.raises(ConfigurationError, match="matches"):
            settings.suite("int")
        # ... but the suite *selection* API reports it as simply empty.
        assert list(settings.suite_selection("int")) == []


class TestRunnerCli:
    def test_unknown_benchmark_filter_exits_two_and_names_it(self, capsys):
        code = runner_main([
            "--experiment", "figure6", "--benchmarks", "nosuchbench",
            "--instructions", "50", "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "nosuchbench" in err
        assert err.startswith("error:")

    def test_unwritable_output_exits_two_without_traceback(self, tmp_path, capsys):
        code = runner_main([
            "--experiment", "figure2", "--benchmarks", "gcc", "swim",
            "--instructions", "50", "--no-cache", "--quiet",
            "--output", str(tmp_path / "missing" / "report.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write report:")

    def test_empty_benchmark_filter_exits_two(self, capsys):
        code = runner_main(["--experiment", "figure6", "--benchmarks", "--quiet"])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_exits_two(self, jobs, capsys):
        code = runner_main([
            "--experiment", "figure6", "--benchmarks", "gcc",
            "--instructions", "50", "--jobs", jobs, "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "jobs must be at least 1" in err

    def test_mixed_known_and_unknown_filter_still_fails(self, capsys):
        code = runner_main([
            "--experiment", "figure6", "--benchmarks", "gcc", "wave5x",
            "--instructions", "50", "--quiet",
        ])
        assert code == 2
        assert "wave5x" in capsys.readouterr().err
