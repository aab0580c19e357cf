"""Unit tests for functional units, ROB, scoreboard and bypass model."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.execute.bypass import BypassNetwork
from repro.execute.functional_units import FunctionalUnitConfig, FunctionalUnitPool
from repro.execute.issue_queue import IssueQueueEntry
from repro.execute.rob import ReorderBuffer
from repro.execute.scoreboard import ValueScoreboard, ValueState
from repro.isa.instruction import DynamicInstruction, INT_LOGICAL_REGISTERS, RegisterClass
from repro.isa.opcodes import OpClass
from repro.rename.renamer import PhysicalRegister


class TestFunctionalUnits:
    def test_table1_defaults(self):
        config = FunctionalUnitConfig()
        assert (config.simple_int, config.int_mul_div, config.simple_fp,
                config.fp_div, config.load_store) == (6, 3, 4, 2, 4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FunctionalUnitConfig(simple_int=0)

    def test_issue_limit_per_cycle(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(simple_int=2))
        pool.begin_cycle(0)
        pool.issue(OpClass.INT_ALU, 0, 1)
        pool.issue(OpClass.INT_ALU, 0, 1)
        assert not pool.can_issue(OpClass.INT_ALU, 0)
        with pytest.raises(ConfigurationError):
            pool.issue(OpClass.INT_ALU, 0, 1)

    def test_pipelined_units_free_next_cycle(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(simple_fp=1))
        pool.begin_cycle(0)
        pool.issue(OpClass.FP_MUL, 0, 2)
        pool.begin_cycle(1)
        assert pool.can_issue(OpClass.FP_MUL, 1)

    def test_divider_busy_for_full_latency(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(fp_div=1))
        pool.begin_cycle(0)
        pool.issue(OpClass.FP_DIV, 0, 14)
        pool.begin_cycle(5)
        assert not pool.can_issue(OpClass.FP_DIV, 5)
        pool.begin_cycle(14)
        assert pool.can_issue(OpClass.FP_DIV, 14)

    def test_branches_use_simple_int_units(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(simple_int=1))
        pool.begin_cycle(0)
        pool.issue(OpClass.BRANCH, 0, 1)
        assert not pool.can_issue(OpClass.INT_ALU, 0)
        assert pool.can_issue(OpClass.INT_MUL, 0)


def _entry(seq):
    """An in-flight record as the pipeline dispatches it into the ROB."""
    inst = DynamicInstruction(seq=seq, op_class=OpClass.INT_ALU,
                              dest=INT_LOGICAL_REGISTERS[1])
    return IssueQueueEntry(instruction=inst)


def _complete(entry, cycle):
    """What write-back does to a completing record."""
    entry.completed = True
    entry.complete_cycle = cycle


class TestReorderBuffer:
    def test_dispatch_commit_in_order(self):
        rob = ReorderBuffer(capacity=4)
        first = rob.dispatch(_entry(0))
        second = rob.dispatch(_entry(1))
        _complete(first, 3)
        _complete(second, 2)
        assert list(rob.retire(width=4, cycle=4)) == [first, second]
        assert rob.occupancy() == 0
        assert list(rob.retire(width=4, cycle=5)) == []

    def test_commit_blocked_by_incomplete_head(self):
        rob = ReorderBuffer(capacity=4)
        rob.dispatch(_entry(0))
        _complete(rob.dispatch(_entry(1)), 1)
        assert list(rob.retire(width=4, cycle=5)) == []
        assert rob.occupancy() == 2

    def test_commit_width_respected(self):
        rob = ReorderBuffer(capacity=16)
        for seq in range(10):
            _complete(rob.dispatch(_entry(seq)), 1)
        assert [e.seq for e in rob.retire(width=4, cycle=3)] == [0, 1, 2, 3]
        assert rob.occupancy() == 6

    def test_completion_cycle_gates_commit(self):
        rob = ReorderBuffer(capacity=4)
        _complete(rob.dispatch(_entry(0)), 5)
        assert list(rob.retire(width=1, cycle=5)) == []
        assert len(list(rob.retire(width=1, cycle=6))) == 1

    def test_overflow(self):
        rob = ReorderBuffer(capacity=1)
        rob.dispatch(_entry(0))
        assert rob.full
        with pytest.raises(SimulationError):
            rob.dispatch(_entry(1))

    def test_program_order_enforced(self):
        rob = ReorderBuffer(capacity=4)
        rob.dispatch(_entry(3))
        with pytest.raises(SimulationError):
            rob.dispatch(_entry(1))

    def test_out_of_order_commit_rejected(self):
        # Entries leave only from the head: a completed younger entry
        # waits until the older one completes, then both commit in order.
        rob = ReorderBuffer(capacity=4)
        first = rob.dispatch(_entry(0))
        second = rob.dispatch(_entry(1))
        _complete(second, 1)
        assert list(rob.retire(width=4, cycle=2)) == []
        _complete(first, 2)
        assert list(rob.retire(width=4, cycle=3)) == [first, second]

    def test_holds_the_window_entry_itself(self):
        rob = ReorderBuffer(capacity=4)
        entry = _entry(0)
        assert rob.dispatch(entry) is entry
        _complete(entry, 0)
        assert rob.retire(width=1, cycle=1)[0] is entry


class TestScoreboard:
    def test_allocate_and_get(self):
        scoreboard = ValueScoreboard()
        register = PhysicalRegister(RegisterClass.INT, 40)
        state = scoreboard.allocate(register, producer_seq=7)
        assert isinstance(state, ValueState)
        assert not state.produced
        assert scoreboard.get(register) is state

    def test_get_unknown_raises(self):
        scoreboard = ValueScoreboard()
        with pytest.raises(SimulationError):
            scoreboard.get(PhysicalRegister(RegisterClass.INT, 1))

    def test_architected_seed_is_available(self):
        scoreboard = ValueScoreboard()
        register = PhysicalRegister(RegisterClass.FP, 2)
        scoreboard.seed_architected(register)
        state = scoreboard.get(register)
        assert state.produced and state.written_back and state.rf_ready_cycle == 0

    def test_release(self):
        scoreboard = ValueScoreboard()
        register = PhysicalRegister(RegisterClass.INT, 40)
        scoreboard.allocate(register, 0)
        scoreboard.release(register)
        assert not scoreboard.contains(register)


class TestBypassNetwork:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BypassNetwork(read_stages=0, bypass_levels=0)
        with pytest.raises(ConfigurationError):
            BypassNetwork(read_stages=1, bypass_levels=2)

    def test_full_bypass_back_to_back(self):
        bypass = BypassNetwork(read_stages=2, bypass_levels=2)
        assert bypass.earliest_consumer_execute(producer_ex_end=10) == 11

    def test_missing_level_adds_latency(self):
        bypass = BypassNetwork(read_stages=2, bypass_levels=1)
        assert bypass.earliest_consumer_execute(producer_ex_end=10) == 12
