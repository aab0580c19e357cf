"""Unit tests for the one-level banked register file and the policy names."""

import pytest

from repro.errors import ConfigurationError
from repro.execute.scoreboard import ValueState
from repro.isa.instruction import RegisterClass
from repro.regfile.banked import OneLevelBankedRegisterFile
from repro.regfile.base import OperandAccess, OperandSource
from repro.regfile.cache import RegisterFileCache
from repro.rename.renamer import PhysicalRegister


def _plan(regfile, register, state, issue_cycle):
    """Plan one operand read into a fresh access and return it."""
    access = OperandAccess(register, state)
    regfile.plan_operand_read(access, issue_cycle)
    return access


def _phys(index):
    return PhysicalRegister(RegisterClass.INT, index)


def _produced(index, ex_end=1, rf_ready=2):
    register = _phys(index)
    state = ValueState(register, producer_seq=index, ex_end_cycle=ex_end,
                       rf_ready_cycle=rf_ready, written_back=True)
    return register, state


class TestOneLevelBanked:
    def test_bank_interleaving(self):
        regfile = OneLevelBankedRegisterFile(num_banks=2)
        assert regfile.bank_of(_phys(4)) == 0
        assert regfile.bank_of(_phys(5)) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OneLevelBankedRegisterFile(num_banks=0)

    def test_bank_conflicts_block_issue(self):
        regfile = OneLevelBankedRegisterFile(num_banks=2, read_ports_per_bank=1)
        regfile.begin_cycle(10)
        a, state_a = _produced(2)    # bank 0
        b, state_b = _produced(4)    # bank 0
        c, state_c = _produced(5)    # bank 1
        access_a = _plan(regfile, a, state_a, issue_cycle=10)
        access_b = _plan(regfile, b, state_b, issue_cycle=10)
        access_c = _plan(regfile, c, state_c, issue_cycle=10)
        assert access_a.bank == 0 and access_c.bank == 1
        assert regfile.can_claim_reads([access_a, access_c])       # different banks
        regfile.claim_reads([access_a, access_c])
        # Bank 0's single port is now used: a second read of that bank in the
        # same cycle is a bank conflict.
        assert not regfile.can_claim_reads([access_b])
        assert regfile.bank_conflicts >= 1
        regfile.begin_cycle(11)
        assert regfile.can_claim_reads([access_b])

    def test_bypass_when_not_yet_written(self):
        regfile = OneLevelBankedRegisterFile(num_banks=2)
        register = _phys(2)
        state = ValueState(register, 0)
        state.ex_end_cycle = 9
        access = _plan(regfile, register, state, issue_cycle=9)
        assert access.source is OperandSource.BYPASS

    def test_writeback_uses_bank_scheduler(self):
        regfile = OneLevelBankedRegisterFile(num_banks=2, write_ports_per_bank=1)
        a, state_a = _produced(2)
        b, state_b = _produced(4)    # same bank as a
        c, state_c = _produced(5)    # other bank
        assert regfile.writeback(a, state_a, cycle=5, window=None) == 5
        assert regfile.writeback(b, state_b, cycle=5, window=None) == 6
        assert regfile.writeback(c, state_c, cycle=5, window=None) == 5

    def test_describe_and_statistics(self):
        regfile = OneLevelBankedRegisterFile(num_banks=4, read_ports_per_bank=2)
        assert "x4" in regfile.describe()
        assert "reads_from_banks" in regfile.statistics()


class TestPolicyRegistries:
    def test_caching_policy_by_name(self):
        for name in ("non-bypass", "ready", "always", "never"):
            assert RegisterFileCache(caching=name).caching == name

    def test_unknown_caching_policy(self):
        with pytest.raises(ConfigurationError):
            RegisterFileCache(caching="magic")

    def test_fetch_policy_by_name(self):
        for name in ("fetch-on-demand", "prefetch-first-pair"):
            assert RegisterFileCache(fetch=name).fetch == name

    def test_unknown_fetch_policy(self):
        with pytest.raises(ConfigurationError):
            RegisterFileCache(fetch="oracle")
