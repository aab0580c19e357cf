"""The bench harness's overhead gates, and version-stamped reports."""

from __future__ import annotations

import json
from dataclasses import replace

from bench_stub import steady, stub_repo
from repro import __version__
from repro.bench import runner
from repro.bench.gates import ObsOverheadGate, ResilienceOverheadGate, overhead_gates
from repro.bench.runner import environment_fingerprint


def _bench_with_gate(gate, tmp_path, monkeypatch):
    """``python -m repro.bench --base HEAD`` in a stub repository whose
    runs all pass, with ``gate`` as the only overhead gate."""
    from repro.bench.__main__ import main

    monkeypatch.setattr(runner, "overhead_gates", lambda: [gate])
    plan = {"point-live": steady()}
    monkeypatch.chdir(stub_repo(tmp_path, plan, plan))
    return main(["--base", "HEAD", "--output-dir", str(tmp_path / "out")])


class TestResilienceOverheadScenario:
    def test_both_passes_identical_and_ratio_reported(self):
        gate = ResilienceOverheadGate(
            name="resilience_overhead",
            figure="figure6",
            instructions=200,
            warmup_instructions=50,
            benchmarks=("gcc",),
        )
        outcome = gate.run()
        assert outcome["points"] == 3
        assert outcome["disabled_wall_seconds"] > 0
        assert outcome["instrumented_wall_seconds"] > 0
        assert outcome["instrumented_over_disabled"] > 0
        assert 1.0 <= outcome["overhead"] <= outcome["bound"] == 1.05
        # The seams must be left disabled afterwards.
        from repro.chaos import seams

        assert not seams.installed()

    def test_instrumented_pass_times_the_seam_calls(self):
        from repro.chaos import seams

        gate = ResilienceOverheadGate(
            name="resilience_overhead", figure="figure6",
            instructions=200, warmup_instructions=50, benchmarks=("gcc",),
        )
        disabled = gate._one_pass(instrumented=False)
        instrumented = gate._one_pass(instrumented=True)
        assert disabled["seam_seconds"] == 0.0
        assert 0.0 < instrumented["seam_seconds"] < instrumented["wall_seconds"]
        assert disabled["digest"] == instrumented["digest"]
        assert not seams.installed()

    def _gated(self, monkeypatch, disabled_wall, instrumented_wall, seam_seconds):
        """A resilience gate whose instrumented pass spends
        ``seam_seconds`` of ``instrumented_wall`` in seam calls."""
        def one_pass(self, instrumented):
            return {
                "points": 3,
                "digest": "d" * 64,
                "wall_seconds": instrumented_wall if instrumented else disabled_wall,
                "seam_seconds": seam_seconds if instrumented else 0.0,
            }

        monkeypatch.setattr(ResilienceOverheadGate, "_one_pass", one_pass)
        return ResilienceOverheadGate(
            name="resilience_overhead", figure="figure6",
            instructions=200, warmup_instructions=50, benchmarks=("gcc",),
        )

    def test_overhead_over_threshold_fails_the_scenario(self, monkeypatch):
        import pytest

        from repro.errors import SimulationError

        gate = self._gated(monkeypatch, 1.0, 1.2, seam_seconds=0.2)
        with pytest.raises(SimulationError, match="1.200x .* exceeds the 1.05x bound"):
            gate.run()

    def test_slower_instrumented_wall_alone_does_not_fail(self, monkeypatch):
        # A host that ran the instrumented pass 30% slower, with the seams
        # themselves costing 1 ms: the wall ratio shows the noise, the
        # gate reads the overhead measured inside the pass.
        outcome = self._gated(monkeypatch, 1.0, 1.3, seam_seconds=0.001).run()
        assert outcome["instrumented_over_disabled"] == 1.3
        assert outcome["overhead"] < 1.001

    def test_cli_exits_one_when_the_bound_is_exceeded(self, monkeypatch, tmp_path,
                                                      capsys):
        gate = self._gated(monkeypatch, 1.0, 2.0, seam_seconds=1.0)
        assert _bench_with_gate(gate, tmp_path, monkeypatch) == 1
        output = capsys.readouterr()
        assert "exceeds the 1.05x bound" in output.err
        assert "FAIL: gate resilience_overhead: seam overhead 2.000x" in output.out
        [report] = (tmp_path / "out").glob("BENCH_*.json")
        assert json.loads(report.read_text())["gates"]["resilience_overhead"]["ok"] is False


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

        payload = json.loads(render_json([], ExperimentSettings()))
        assert payload["version"] == __version__

    def test_single_sourced_version(self):
        from repro.version import __version__ as module_version

        assert module_version == __version__


class TestObsOverheadScenario:
    def _gate(self, monkeypatch, bare_wall, full_wall, sink_seconds):
        """An obs gate whose full passes spend ``sink_seconds`` of
        ``full_wall`` in the event log and bus."""
        def one_pass(self, full_telemetry):
            return {
                "points": 3,
                "digest": "d" * 64,
                "wall_seconds": full_wall if full_telemetry else bare_wall,
                "sink_seconds": sink_seconds if full_telemetry else 0.0,
            }

        monkeypatch.setattr(ObsOverheadGate, "_one_pass", one_pass)
        return ObsOverheadGate(
            name="obs_overhead", figure="figure6", instructions=200,
            warmup_instructions=50, benchmarks=("gcc",),
        )

    def test_overhead_over_threshold_fails_the_scenario(self, monkeypatch):
        import pytest

        from repro.errors import SimulationError

        gate = self._gate(monkeypatch, 1.0, 1.2, sink_seconds=0.2)
        with pytest.raises(SimulationError, match="1.200x .* exceeds the 1.05x bound"):
            gate.run()

    def test_overhead_within_threshold_is_reported(self, monkeypatch):
        outcome = self._gate(monkeypatch, 1.0, 1.02, sink_seconds=0.02).run()
        assert outcome["overhead"] == 1.02
        assert outcome["full_over_bare"] == 1.02
        assert outcome["full_wall_seconds"] == 1.02

    def test_slower_full_walls_alone_do_not_fail(self, monkeypatch):
        # A host that ran every full pass 30% slower, with telemetry
        # itself costing 1 ms: the wall ratio shows the noise, the gate
        # reads the overhead measured inside the pass.
        outcome = self._gate(monkeypatch, 1.0, 1.3, sink_seconds=0.001).run()
        assert outcome["full_over_bare"] == 1.3
        assert outcome["overhead"] < 1.001

    def test_full_passes_time_the_event_log_and_bus(self):
        gate = next(g for g in overhead_gates() if g.name == "obs_overhead")
        gate = replace(gate, instructions=300, warmup_instructions=100)
        bare = gate._one_pass(full_telemetry=False)
        full = gate._one_pass(full_telemetry=True)
        assert bare["sink_seconds"] == 0.0
        assert 0.0 < full["sink_seconds"] < full["wall_seconds"]
        assert bare["digest"] == full["digest"]

    def test_cli_exits_one_when_the_bound_is_exceeded(self, monkeypatch, tmp_path,
                                                      capsys):
        gate = self._gate(monkeypatch, 1.0, 2.0, sink_seconds=1.0)
        assert _bench_with_gate(gate, tmp_path, monkeypatch) == 1
        output = capsys.readouterr()
        assert "exceeds the 1.05x bound" in output.err
        assert "FAIL: gate obs_overhead: telemetry overhead 2.000x" in output.out


def test_the_gates_run_at_the_quick_budget():
    # The obs plan is deliberately not shrunk: watch-poll quantisation
    # swamps the ratio of a sub-second job.
    obs, resilience = overhead_gates()
    assert (obs.name, obs.instructions, obs.warmup_instructions) == (
        "obs_overhead", 6000, 2000)
    assert (resilience.name, resilience.instructions,
            resilience.warmup_instructions) == ("resilience_overhead", 1500, 300)


class TestGateChecks:
    def test_a_gate_plan_carries_its_budget(self):
        gate = ResilienceOverheadGate(name="r", figure="figure6", instructions=1500,
                                      warmup_instructions=300, benchmarks=("gcc",))
        assert gate.plan() == {"figure": "figure6", "settings": {
            "instructions": 1500, "warmup_instructions": 300, "benchmarks": ["gcc"]}}

    def test_the_resilience_gate_refuses_installed_seams(self):
        import pytest

        from repro.chaos import seams
        from repro.chaos.faults import FaultInjector
        from repro.errors import SimulationError

        gate = ResilienceOverheadGate(name="r", figure="figure6", instructions=200,
                                      warmup_instructions=50, benchmarks=("gcc",))
        seams.install(FaultInjector([]))
        try:
            with pytest.raises(SimulationError, match="seams disabled at entry"):
                gate.run()
        finally:
            seams.uninstall()

    def test_a_diverging_resilience_pass_fails_the_gate(self, monkeypatch):
        import pytest

        from repro.errors import SimulationError

        def one_pass(self, instrumented):
            return {"points": 3, "digest": "b" if instrumented else "a",
                    "wall_seconds": 1.0, "seam_seconds": 0.0}

        monkeypatch.setattr(ResilienceOverheadGate, "_one_pass", one_pass)
        gate = ResilienceOverheadGate(name="r", figure="figure6", instructions=200,
                                      warmup_instructions=50, benchmarks=("gcc",))
        with pytest.raises(SimulationError, match="seams are not transparent"):
            gate.run()

    def test_a_diverging_telemetry_pass_fails_the_gate(self, monkeypatch):
        import pytest

        from repro.errors import SimulationError

        def one_pass(self, full_telemetry):
            return {"points": 3, "digest": "b" if full_telemetry else "a",
                    "wall_seconds": 1.0, "sink_seconds": 0.0}

        monkeypatch.setattr(ObsOverheadGate, "_one_pass", one_pass)
        gate = ObsOverheadGate(name="o", figure="figure6", instructions=200,
                               warmup_instructions=50, benchmarks=("gcc",))
        with pytest.raises(SimulationError, match="observability is not transparent"):
            gate.run()

    def test_instrumented_calls_filling_the_whole_wall_fail_the_gate(self, monkeypatch):
        import pytest

        from repro.errors import SimulationError

        def one_pass(self, instrumented):
            return {"points": 3, "digest": "d", "wall_seconds": 1.0,
                    "seam_seconds": 1.0 if instrumented else 0.0}

        monkeypatch.setattr(ResilienceOverheadGate, "_one_pass", one_pass)
        gate = ResilienceOverheadGate(name="r", figure="figure6", instructions=200,
                                      warmup_instructions=50, benchmarks=("gcc",))
        with pytest.raises(SimulationError, match="infx"):
            gate.run()

    def test_the_obs_gate_reads_the_median_of_its_pairs(self, monkeypatch):
        fulls = iter([(1.10, 0.10), (1.01, 0.01), (1.02, 0.02)])

        def one_pass(self, full_telemetry):
            if not full_telemetry:
                return {"points": 3, "digest": "d", "wall_seconds": 1.0,
                        "sink_seconds": 0.0}
            wall, sink = next(fulls)
            return {"points": 3, "digest": "d", "wall_seconds": wall,
                    "sink_seconds": sink}

        monkeypatch.setattr(ObsOverheadGate, "_one_pass", one_pass)
        outcome = ObsOverheadGate(name="o", figure="figure6", instructions=200,
                                  warmup_instructions=50, benchmarks=("gcc",)).run()
        # Pass overheads 1.1, 1.01 and 1.02: the one slow pass is outvoted.
        assert outcome["overhead"] == 1.02
        assert outcome["pairs"] == 3 and outcome["full_wall_seconds"] == 1.01
