"""Unit tests for the single-banked (monolithic) register file model."""

import pytest

from repro.errors import ConfigurationError
from repro.execute.scoreboard import ValueState
from repro.isa.instruction import RegisterClass
from repro.regfile.base import OperandSource
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.rename.renamer import PhysicalRegister


def _plan(regfile, state, issue_cycle):
    """Plan one operand read on ``state`` (the plan is written onto the
    value state itself) and return the state."""
    regfile.plan_operand_read(state, issue_cycle)
    return state


def _phys(index=40):
    return PhysicalRegister(RegisterClass.INT, index)


def _state(ex_end=None, rf_ready=None):
    register = _phys()
    state = ValueState(register, producer_seq=0)
    if ex_end is not None:
        state.ex_end_cycle = ex_end
    if rf_ready is not None:
        state.rf_ready_cycle = rf_ready
        state.written_back = True
    return register, state


class TestConstruction:
    def test_default_bypass_matches_latency(self):
        regfile = SingleBankedRegisterFile(latency=2)
        assert regfile.read_stages == 2 and regfile.bypass_levels == 2

    def test_invalid_latency(self):
        with pytest.raises(ConfigurationError):
            SingleBankedRegisterFile(latency=0)

    def test_invalid_bypass_levels(self):
        with pytest.raises(ConfigurationError):
            SingleBankedRegisterFile(latency=1, bypass_levels=2)
        with pytest.raises(ConfigurationError):
            SingleBankedRegisterFile(latency=2, bypass_levels=0)

    def test_describe_mentions_ports(self):
        regfile = SingleBankedRegisterFile(latency=1, read_ports=3, write_ports=2)
        assert "3R" in regfile.describe() and "2W" in regfile.describe()


class TestOperandTiming:
    # When a consumer may execute is the processor's decision (see
    # tests/test_operand_timing_table.py); the file picks the source.
    def test_consumer_offset_per_missing_bypass_level(self):
        assert SingleBankedRegisterFile(latency=1, bypass_levels=1).consumer_offset == 1
        assert SingleBankedRegisterFile(latency=2, bypass_levels=2).consumer_offset == 1
        assert SingleBankedRegisterFile(latency=2, bypass_levels=1).consumer_offset == 2
        assert SingleBankedRegisterFile(latency=3, bypass_levels=1).consumer_offset == 3

    def test_consumer_offset_is_derived(self):
        regfile = SingleBankedRegisterFile(latency=2, bypass_levels=1)
        with pytest.raises(AttributeError):
            regfile.consumer_offset = 1

    def test_full_bypass_back_to_back(self):
        regfile = SingleBankedRegisterFile(latency=1, bypass_levels=1)
        register, state = _state(ex_end=9)
        # Consumer issuing at 9 executes at 10 = ex_end + 1: via bypass.
        access = _plan(regfile, state, issue_cycle=9)
        assert access.source is OperandSource.BYPASS

    def test_missing_bypass_level_adds_one_cycle(self):
        regfile = SingleBankedRegisterFile(latency=2, bypass_levels=1)
        register, state = _state(ex_end=9)
        # Earliest execute is ex_end + 2 = 11, i.e. issue at 9: the one
        # bypass level kept is the second.
        ok = _plan(regfile, state, issue_cycle=9)
        assert ok.source is OperandSource.BYPASS

    def test_reads_come_from_file_once_written(self):
        regfile = SingleBankedRegisterFile(latency=1)
        register, state = _state(ex_end=5, rf_ready=7)
        # The plan lives on the value state, so each is read before the
        # next plan replaces it.
        from_bypass = _plan(regfile, state, issue_cycle=6).source
        assert from_bypass is OperandSource.BYPASS
        from_file = _plan(regfile, state, issue_cycle=7).source
        assert from_file is OperandSource.FILE


class TestPorts:
    def _file_access(self, regfile, issue_cycle=10):
        register, state = _state(ex_end=1, rf_ready=2)
        return _plan(regfile, state, issue_cycle=issue_cycle)

    def test_read_port_exhaustion(self):
        regfile = SingleBankedRegisterFile(latency=1, read_ports=2)
        regfile.begin_cycle(10)
        accesses = [self._file_access(regfile) for _ in range(2)]
        assert regfile.can_claim_reads(accesses)
        regfile.claim_reads(accesses)
        more = [self._file_access(regfile)]
        assert not regfile.can_claim_reads(more)
        assert regfile.read_port_stalls == 1
        regfile.begin_cycle(11)
        assert regfile.can_claim_reads(more)

    def test_bypass_accesses_do_not_use_ports(self):
        regfile = SingleBankedRegisterFile(latency=1, read_ports=1)
        regfile.begin_cycle(6)
        register, state = _state(ex_end=5)
        access = _plan(regfile, state, issue_cycle=5)
        assert access.source is OperandSource.BYPASS
        assert regfile.can_claim_reads([access, access, access])

    def test_write_port_contention_delays_rf_ready(self):
        regfile = SingleBankedRegisterFile(latency=1, write_ports=1)
        register, state = _state(ex_end=5)
        window = None
        first = regfile.writeback(_phys(41), state, cycle=6, window=window)
        second = regfile.writeback(_phys(42), state, cycle=6, window=window)
        assert first == 6 and second == 7

    def test_statistics_counters(self):
        regfile = SingleBankedRegisterFile(latency=1, read_ports=4)
        regfile.begin_cycle(10)
        access = self._file_access(regfile)
        regfile.claim_reads([access])
        stats = regfile.statistics()
        assert stats["reads_from_file"] == 1
