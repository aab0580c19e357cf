"""Sampling subsystem: spec validation, window placement, estimates, CLI.

This file locks down the spec surface (the same validator gates the
runner flag and the service API), the deterministic window plan, and the
sampled estimate itself.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.store import simulation_key
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.pipeline.stats import SimulationStats
from repro.sampling import SamplingSpec, parse_sampling, sampled_simulate
from repro.sampling.__main__ import main as sampling_main
from repro.sampling.engine import (
    confidence_interval,
    event_offsets,
    t_critical,
    window_plan,
)
from repro.trace import TraceReplayer, record_trace, replay_simulate
from repro.validate.differential import validation_matrix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

N = 2000


def _stream(benchmark: str, count: int):
    return SyntheticWorkload(get_profile(benchmark)).instructions(count)


def _workload_id(benchmark: str, count: int) -> dict:
    return {"kind": "sampling-test", "benchmark": benchmark,
            "instructions": count}


@pytest.fixture(scope="module")
def gcc_trace():
    config = ProcessorConfig(max_instructions=N)
    return record_trace("gcc", _stream("gcc", N), config, _workload_id("gcc", N))


class TestSamplingSpec:
    def test_defaults(self):
        spec = SamplingSpec(stride=2000, window=200)
        assert spec.effective_warmup == 200  # defaults to one window
        assert spec.confidence == 0.95
        assert spec.label() == "2000:200:200"

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0, "window": 1},
        {"stride": -5, "window": 1},
        {"stride": 10, "window": 0},
        {"stride": 10, "window": 20},            # window > stride
        {"stride": 10, "window": 5, "warmup": -1},
        {"stride": 10, "window": 5, "confidence": 0.8},
        {"stride": 10, "window": 5, "target_half_width": 0.0},
        {"stride": 10, "window": 5, "target_half_width": 1.5},
        {"stride": 10, "window": 5, "min_windows": 1},
        {"stride": 10, "window": 5, "min_windows": 4, "max_windows": 3},
        {"stride": True, "window": 5},           # bool is not an int here
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SamplingSpec(**kwargs)

    def test_payload_round_trip(self):
        spec = SamplingSpec(stride=1500, window=400, warmup=600,
                            confidence=0.99, target_half_width=0.05,
                            min_windows=4, max_windows=20)
        assert SamplingSpec.from_payload(spec.to_payload()) == spec

    def test_from_payload_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ConfigurationError, match="unknown sampling field"):
            SamplingSpec.from_payload({"stride": 10, "window": 5, "bogus": 1})
        with pytest.raises(ConfigurationError, match="missing required"):
            SamplingSpec.from_payload({"stride": 10})
        with pytest.raises(ConfigurationError, match="JSON object"):
            SamplingSpec.from_payload("1000:100")

    @pytest.mark.parametrize("text, expected", [
        ("2000:200", SamplingSpec(stride=2000, window=200)),
        ("2000:200:400", SamplingSpec(stride=2000, window=200, warmup=400)),
        ("1500:400:0", SamplingSpec(stride=1500, window=400, warmup=0)),
    ])
    def test_parse_sampling(self, text, expected):
        assert parse_sampling(text) == expected

    @pytest.mark.parametrize("text", ["2000", "a:b", "10:5:3:1", "", "10:", 42])
    def test_parse_sampling_rejects_malformed(self, text):
        with pytest.raises(ConfigurationError):
            parse_sampling(text)


class TestEstimator:
    def test_t_critical_table_and_normal_tail(self):
        assert t_critical(0.95, 2) == pytest.approx(12.706)
        assert t_critical(0.95, 31) == pytest.approx(2.042)
        assert t_critical(0.95, 200) == pytest.approx(1.960)
        with pytest.raises(ConfigurationError):
            t_critical(0.95, 1)  # df = 0: no interval from one window
        with pytest.raises(ConfigurationError):
            t_critical(0.85, 10)  # no committed table

    def test_confidence_interval_known_values(self):
        mean, half_width = confidence_interval([1.0, 1.0, 1.0, 1.0], 0.95)
        assert mean == 1.0 and half_width == 0.0
        mean, half_width = confidence_interval([1.0, 3.0], 0.95)
        assert mean == 2.0
        # s = sqrt(2), t(df=1) = 12.706 -> 12.706 * sqrt(2/2) = 12.706
        assert half_width == pytest.approx(12.706)


class TestWindowPlan:
    def test_windows_snap_to_event_boundaries(self, gcc_trace):
        spec = SamplingSpec(stride=500, window=100)
        plan = window_plan(gcc_trace, spec)
        offsets = event_offsets(gcc_trace)
        assert len(plan) >= 2
        starts = [start for _, start in plan]
        assert starts == sorted(set(starts))  # strictly increasing
        for index, start in plan:
            assert offsets[index] == start
            assert start + spec.window <= len(gcc_trace.instructions)
        # Window k targets k*stride and snaps forward, never backward.
        for k, (_, start) in enumerate(plan):
            assert start >= k * spec.stride or k > 0

    def test_too_short_trace_is_a_configuration_error(self, gcc_trace):
        with pytest.raises(ConfigurationError, match="too short"):
            window_plan(gcc_trace, SamplingSpec(stride=N, window=500))


class TestSampledSimulate:
    def test_deterministic_and_carries_interval(self, gcc_trace):
        factory = validation_matrix()["rfc-non-bypass"]
        config = ProcessorConfig(max_instructions=N)
        spec = SamplingSpec(stride=500, window=100, warmup=100)
        first = sampled_simulate(gcc_trace, factory, config, spec,
                                 benchmark_name="gcc")
        second = sampled_simulate(gcc_trace, factory, config, spec,
                                  benchmark_name="gcc")
        assert first.to_dict() == second.to_dict()
        sampling = first.sampling
        assert sampling is not None
        assert sampling["spec"] == spec.to_payload()
        assert sampling["windows"] == len(sampling["window_ipcs"]) >= 2
        assert sampling["total_instructions"] == N
        assert sampling["detailed_instructions"] == (
            sampling["windows"] * spec.window
        )
        assert first.committed_instructions == sampling["detailed_instructions"]
        low = sampling["ipc_mean"] - sampling["ci_half_width"]
        high = sampling["ipc_mean"] + sampling["ci_half_width"]
        assert 0.0 < low <= high

    def test_max_windows_caps_the_plan(self, gcc_trace):
        factory = validation_matrix()["monolithic-1c"]
        config = ProcessorConfig(max_instructions=N)
        spec = SamplingSpec(stride=500, window=100, warmup=0,
                            min_windows=2, max_windows=2)
        stats = sampled_simulate(gcc_trace, factory, config, spec,
                                 benchmark_name="gcc")
        assert stats.sampling["windows"] == 2

    def test_stats_round_trip_preserves_sampling(self, gcc_trace):
        factory = validation_matrix()["monolithic-1c"]
        config = ProcessorConfig(max_instructions=N)
        spec = SamplingSpec(stride=500, window=100)
        sampled = sampled_simulate(gcc_trace, factory, config, spec,
                                   benchmark_name="gcc")
        payload = sampled.to_dict()
        assert "sampling" in payload
        restored = SimulationStats.from_dict(payload)
        assert restored.sampling == sampled.sampling
        assert restored.to_dict() == payload

    def test_exact_stats_payload_has_no_sampling_key(self, gcc_trace):
        """Fixture stability: exact runs serialize exactly as before the
        sampling field existed."""
        factory = validation_matrix()["monolithic-1c"]
        config = ProcessorConfig(max_instructions=N)
        exact = replay_simulate(gcc_trace, factory, config,
                                benchmark_name="gcc")
        assert "sampling" not in exact.to_dict()

    def test_sampled_store_key_differs_from_exact(self):
        config = ProcessorConfig(max_instructions=N)
        spec = SamplingSpec(stride=500, window=100)
        exact_key = simulation_key("gcc", "mono-1c", config, 0)
        sampled_key = simulation_key("gcc", "mono-1c", config, 0,
                                     sampling=spec.to_payload())
        assert exact_key != sampled_key
        # Omit-when-None: passing sampling=None is the pre-sampling key.
        assert simulation_key("gcc", "mono-1c", config, 0,
                              sampling=None) == exact_key


class TestFunctionalWarmup:
    def test_warms_only_the_processor_state(self, gcc_trace):
        """``Processor.functional_warmup`` leaves one value state per live
        mapping, every other register free, no instruction in flight and
        no D-cache count behind."""
        processor = Processor(None, validation_matrix()["rfc-ready"],
                              ProcessorConfig(max_instructions=N),
                              frontend=TraceReplayer(gcc_trace, start_event=0))
        processor.functional_warmup(gcc_trace.instructions[:600])
        renamer = processor.renamer
        mapped = {physical.uid for physical in renamer.map}
        assert set(processor.window.values) == mapped
        for free_list, physical in ((renamer.int_free, renamer.num_int_physical),
                                    (renamer.fp_free, renamer.num_fp_physical)):
            assert len(free_list.free) == physical - len(renamer.map) // 2
            assert set(free_list.free) == free_list.members
        assert all(state.written_back for state in processor.window.values.values())
        assert (processor.dcache.hits, processor.dcache.misses) == (0, 0)
        assert not processor.rob and not processor.window.entries
        assert processor.lsq_occupancy == 0 and not processor.stores_at


class TestSamplingCli:
    def test_no_arguments_prints_help_and_exits_zero(self, capsys):
        assert sampling_main([]) == 0
        assert "--list" in capsys.readouterr().out

    def test_list_exits_zero(self, capsys):
        assert sampling_main(["--list"]) == 0
        out = capsys.readouterr().out
        for knob in ("stride", "window", "warmup", "confidence",
                     "target_half_width", "min_windows", "max_windows"):
            assert knob in out

    def test_valid_spec_prints_payload(self, capsys):
        assert sampling_main(["--spec", "1500:400:600"]) == 0
        out = capsys.readouterr().out
        assert '"stride": 1500' in out and '"warmup": 600' in out

    @pytest.mark.parametrize("text", ["400:1500", "nope", "10"])
    def test_invalid_spec_exits_two_without_traceback(self, text, capsys):
        assert sampling_main(["--spec", text]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
