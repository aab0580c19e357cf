"""The service_throughput bench scenario and version-stamped reports."""

from __future__ import annotations

from dataclasses import replace

from repro import __version__
from repro.bench.report import environment_fingerprint
from repro.bench.runner import BenchmarkRunner
from repro.bench.scenarios import ServiceScenario, service_scenarios


class TestServiceScenario:
    def test_service_round_trip_in_report(self):
        scenario = ServiceScenario(
            name="service_throughput/figure6",
            figure="figure6",
            instructions=200,
            warmup_instructions=50,
            benchmarks=("gcc",),
        )
        runner = BenchmarkRunner(repeats=1, simulations=[], sweeps=[],
                                 sampled_sweeps=[], services=[scenario],
                                 stores=[],
                                 include_components=False)
        report = runner.run(index=1)
        [result] = report.scenarios
        assert result.kind == "service"
        assert result.operations == 3  # 3 architectures x 1 benchmark
        assert result.operations_per_second > 0
        assert result.stats_digest and len(result.stats_digest) == 64
        assert result.metadata["transport"] == "http"
        assert result.metadata["points_per_minute"] > 0
        assert result.metadata["job_counters"]["executed"] == 3

    def test_scenario_is_quick_eligible_and_stably_named(self):
        quick, quick_resilience, quick_obs = service_scenarios(quick=True)
        full, full_resilience, full_obs = service_scenarios(quick=False)
        # The perf gate matches scenarios by name across reports, so the
        # quick CI run must carry the same name as the committed baseline.
        assert quick.name == full.name == "service_throughput/figure6"
        assert quick.instructions < full.instructions
        assert quick_resilience.name == full_resilience.name \
            == "resilience_overhead/figure6"
        assert quick_resilience.instructions < full_resilience.instructions
        assert quick_obs.name == full_obs.name == "obs_overhead/figure6"
        # The obs ratio is deliberately measured at full size even under
        # --quick: watch-poll quantisation swamps sub-second jobs.
        assert quick_obs.instructions == full_obs.instructions

    def test_deterministic_digest(self):
        scenario = ServiceScenario(
            name="service_throughput/figure6",
            figure="figure6",
            instructions=200,
            warmup_instructions=50,
            benchmarks=("gcc",),
        )
        assert scenario.run()["stats_digest"] == scenario.run()["stats_digest"]


class TestResilienceOverheadScenario:
    def test_both_passes_identical_and_ratio_reported(self):
        from repro.bench.scenarios import ResilienceOverheadScenario

        scenario = ResilienceOverheadScenario(
            name="resilience_overhead/figure6",
            figure="figure6",
            instructions=200,
            warmup_instructions=50,
            benchmarks=("gcc",),
        )
        outcome = scenario.run()
        assert outcome["points"] == 3
        summary = outcome["summary"]
        assert summary["disabled_wall_seconds"] > 0
        assert summary["instrumented_wall_seconds"] > 0
        assert summary["instrumented_over_disabled"] > 0
        assert 1.0 <= summary["seam_overhead"] <= summary["threshold"] == 1.05
        assert len(outcome["stats_digest"]) == 64
        # The seams must be left disabled afterwards.
        from repro.chaos import seams

        assert not seams.installed()

    def test_instrumented_pass_times_the_seam_calls(self):
        from repro.bench.scenarios import ResilienceOverheadScenario
        from repro.chaos import seams

        scenario = ResilienceOverheadScenario(
            name="resilience_overhead/figure6", figure="figure6",
            instructions=200, warmup_instructions=50, benchmarks=("gcc",),
        )
        disabled = scenario._one_pass(instrumented=False)
        instrumented = scenario._one_pass(instrumented=True)
        assert disabled["seam_seconds"] == 0.0
        assert 0.0 < instrumented["seam_seconds"] < instrumented["wall_seconds"]
        assert disabled["digest"] == instrumented["digest"]
        assert not seams.installed()

    def _gated(self, monkeypatch, disabled_wall, instrumented_wall, seam_seconds):
        """A resilience scenario whose instrumented pass spends
        ``seam_seconds`` of ``instrumented_wall`` in seam calls."""
        from repro.bench.scenarios import ResilienceOverheadScenario

        def one_pass(self, instrumented):
            return {
                "points": 3,
                "digest": "d" * 64,
                "wall_seconds": instrumented_wall if instrumented else disabled_wall,
                "seam_seconds": seam_seconds if instrumented else 0.0,
            }

        monkeypatch.setattr(ResilienceOverheadScenario, "_one_pass", one_pass)
        return ResilienceOverheadScenario(
            name="resilience_overhead/figure6", figure="figure6",
            instructions=200, warmup_instructions=50, benchmarks=("gcc",),
        )

    def test_overhead_over_threshold_fails_the_scenario(self, monkeypatch):
        import pytest

        from repro.errors import SimulationError

        scenario = self._gated(monkeypatch, 1.0, 1.2, seam_seconds=0.2)
        with pytest.raises(SimulationError, match="1.200x .* exceeds the 1.05x bound"):
            scenario.run()

    def test_slower_instrumented_wall_alone_does_not_fail(self, monkeypatch):
        # A host that ran the instrumented pass 30% slower, with the seams
        # themselves costing 1 ms: the wall ratio shows the noise, the
        # gate reads the overhead measured inside the pass.
        outcome = self._gated(monkeypatch, 1.0, 1.3, seam_seconds=0.001).run()
        assert outcome["summary"]["instrumented_over_disabled"] == 1.3
        assert outcome["summary"]["seam_overhead"] < 1.001

    def test_cli_exits_one_when_the_bound_is_exceeded(self, monkeypatch, tmp_path,
                                                      capsys):
        from repro.bench.__main__ import main

        self._gated(monkeypatch, 1.0, 2.0, seam_seconds=1.0)
        argv = ["--quick", "--repeats", "1", "--filter", "resilience_overhead",
                "--no-components", "--quiet", "--output-dir", str(tmp_path)]
        assert main(argv) == 1
        assert "exceeds the 1.05x bound" in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))


class TestVersionEmbedding:
    def test_bench_environment_carries_repro_version(self):
        assert environment_fingerprint()["repro_version"] == __version__

    def test_validation_report_carries_version(self):
        from repro.validate.report import ValidationReport

        report = ValidationReport(created="now", quick=True, seeds=[1],
                                  architectures=["x"])
        assert report.to_dict()["version"] == __version__

    def test_experiments_json_report_carries_version(self):
        from repro.experiments.common import ExperimentSettings
        from repro.experiments.runner import render_json
        import json

        payload = json.loads(render_json([], ExperimentSettings()))
        assert payload["version"] == __version__

    def test_single_sourced_version(self):
        from repro.version import __version__ as module_version

        assert module_version == __version__


class TestObsOverheadScenario:
    def _scenario(self, monkeypatch, bare_wall, full_wall, sink_seconds):
        """An obs scenario whose full passes spend ``sink_seconds`` of
        ``full_wall`` in the event log and bus."""
        from repro.bench.scenarios import ObsOverheadScenario

        def one_pass(self, full_telemetry):
            return {
                "points": 3,
                "digest": "d" * 64,
                "wall_seconds": full_wall if full_telemetry else bare_wall,
                "sink_seconds": sink_seconds if full_telemetry else 0.0,
            }

        monkeypatch.setattr(ObsOverheadScenario, "_one_pass", one_pass)
        return ObsOverheadScenario(
            name="obs_overhead/figure6", figure="figure6", instructions=200,
            warmup_instructions=50, benchmarks=("gcc",),
        )

    def test_overhead_over_threshold_fails_the_scenario(self, monkeypatch):
        import pytest

        from repro.errors import SimulationError

        scenario = self._scenario(monkeypatch, 1.0, 1.2, sink_seconds=0.2)
        with pytest.raises(SimulationError, match="1.200x .* exceeds the 1.05x bound"):
            scenario.run()

    def test_overhead_within_threshold_is_reported(self, monkeypatch):
        outcome = self._scenario(monkeypatch, 1.0, 1.02, sink_seconds=0.02).run()
        summary = outcome["summary"]
        assert summary["telemetry_overhead"] == 1.02
        assert summary["full_over_bare"] == 1.02
        assert outcome["wall_seconds_override"] == 1.02

    def test_slower_full_walls_alone_do_not_fail(self, monkeypatch):
        # A host that ran every full pass 30% slower, with telemetry
        # itself costing 1 ms: the wall ratio shows the noise, the gate
        # reads the overhead measured inside the pass.
        outcome = self._scenario(monkeypatch, 1.0, 1.3, sink_seconds=0.001).run()
        assert outcome["summary"]["full_over_bare"] == 1.3
        assert outcome["summary"]["telemetry_overhead"] < 1.001

    def test_full_passes_time_the_event_log_and_bus(self):
        from repro.bench.scenarios import service_scenarios

        scenario = next(s for s in service_scenarios(quick=True)
                        if s.name == "obs_overhead/figure6")
        scenario = replace(scenario, instructions=300, warmup_instructions=100)
        bare = scenario._one_pass(full_telemetry=False)
        full = scenario._one_pass(full_telemetry=True)
        assert bare["sink_seconds"] == 0.0
        assert 0.0 < full["sink_seconds"] < full["wall_seconds"]
        assert bare["digest"] == full["digest"]

    def test_cli_exits_one_when_the_bound_is_exceeded(self, monkeypatch, tmp_path,
                                                      capsys):
        from repro.bench.__main__ import main

        self._scenario(monkeypatch, 1.0, 2.0, sink_seconds=1.0)
        argv = ["--quick", "--repeats", "1", "--filter", "obs_overhead",
                "--no-components", "--quiet", "--output-dir", str(tmp_path)]
        assert main(argv) == 1
        assert "exceeds the 1.05x bound" in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))
