"""Unit tests for the processor configuration and statistics containers."""

import pytest

from repro.errors import ConfigurationError
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import OccupancySample, SimulationStats


class TestProcessorConfig:
    def test_table1_defaults(self):
        config = ProcessorConfig()
        assert config.fetch_width == 8
        assert config.issue_width == 8
        assert config.commit_width == 8
        assert config.instruction_window == 128
        assert config.lsq_size == 64
        assert config.num_int_physical == 128
        assert config.num_fp_physical == 128
        assert config.branch_predictor_entries == 64 * 1024
        assert config.icache.size_bytes == 64 * 1024
        assert config.dcache.dirty_miss_latency == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(fetch_width=0)
        with pytest.raises(ConfigurationError):
            ProcessorConfig(max_cycles=0)
        # The window, ROB and load/store queue sizes are checked here only.
        for name in ("instruction_window", "rob_size", "lsq_size"):
            for size in (0, -1):
                with pytest.raises(ConfigurationError, match=name):
                    ProcessorConfig(**{name: size})

    def test_with_overrides(self):
        config = ProcessorConfig().with_overrides(num_int_physical=64)
        assert config.num_int_physical == 64
        assert config.num_fp_physical == 128

    def test_effective_max_cycles(self):
        assert ProcessorConfig(max_cycles=123).effective_max_cycles == 123
        default = ProcessorConfig(max_instructions=100)
        assert default.effective_max_cycles > 100


class TestSimulationStats:
    def test_ipc(self):
        stats = SimulationStats(cycles=100, committed_instructions=250)
        assert stats.ipc == 2.5
        assert SimulationStats().ipc == 0.0

    def test_branch_rates(self):
        stats = SimulationStats(branch_predictions=100, branch_mispredictions=10)
        assert stats.branch_misprediction_rate == pytest.approx(0.1)
        assert stats.branch_prediction_accuracy == pytest.approx(0.9)
        assert SimulationStats().branch_misprediction_rate == 0.0

    def test_cache_hit_rates(self):
        stats = SimulationStats(icache_hits=90, icache_misses=10,
                                dcache_hits=50, dcache_misses=50)
        assert stats.icache_hit_rate == pytest.approx(0.9)
        assert stats.dcache_hit_rate == pytest.approx(0.5)

    def test_bypass_fraction(self):
        stats = SimulationStats(operands_from_bypass=30, operands_from_file=70)
        assert stats.bypass_operand_fraction == pytest.approx(0.3)

    def test_occupancy_cdf(self):
        stats = SimulationStats()
        stats.record_occupancy(OccupancySample(live_needed=2, live_ready=1))
        stats.record_occupancy(OccupancySample(live_needed=4, live_ready=1))
        cdf = stats.occupancy_cdf("needed", max_registers=5)
        assert cdf[1] == 0.0
        assert cdf[2] == 50.0
        assert cdf[5] == 100.0
        ready = stats.occupancy_cdf("ready", max_registers=5)
        assert ready[1] == 100.0

    def test_occupancy_cdf_overflow_folding(self):
        stats = SimulationStats()
        stats.record_occupancy(OccupancySample(live_needed=40, live_ready=0))
        cdf = stats.occupancy_cdf("needed", max_registers=8)
        assert cdf[-1] == 100.0
        assert cdf[0] == 0.0

    def test_empty_occupancy_cdf(self):
        cdf = SimulationStats().occupancy_cdf("needed", max_registers=4)
        assert cdf == [100.0] * 5

    def test_value_reads(self):
        stats = SimulationStats()
        for reads in (0, 1, 1, 5):
            stats.record_value_reads(reads)
        assert stats.read_at_most_once_fraction() == pytest.approx(0.75)
        assert SimulationStats().read_at_most_once_fraction() == 1.0

    def test_summary_keys(self):
        summary = SimulationStats(benchmark="gcc", architecture="x").summary()
        assert {"benchmark", "architecture", "ipc", "cycles"} <= set(summary)
