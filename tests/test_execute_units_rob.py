"""Unit tests for functional units, ROB, value states and bypass timing.

The pipeline books functional units at issue, keeps the value states in
the window and pops the ROB head at commit in place, so these tests run
the stages on hand-built instructions (see ``staged_pipeline.py``) or
whole simulations with a commit observer.
"""

import pytest

from staged_pipeline import CommitRecorder, StagedPipeline, op

from repro.errors import ConfigurationError, SimulationError
from repro.execute.functional_units import FunctionalUnitConfig
from repro.execute.scoreboard import ValueState
from repro.isa.instruction import FP_LOGICAL_REGISTERS, INT_LOGICAL_REGISTERS, fp_reg, int_reg
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor, simulate
from repro.regfile.monolithic import SingleBankedRegisterFile


class TestFunctionalUnits:
    def test_table1_defaults(self):
        config = FunctionalUnitConfig()
        assert (config.simple_int, config.int_mul_div, config.simple_fp,
                config.fp_div, config.load_store) == (6, 3, 4, 2, 4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FunctionalUnitConfig(simple_int=0)

    def test_issue_limit_per_cycle(self):
        pipe = StagedPipeline(functional_units=FunctionalUnitConfig(simple_int=2))
        entries = pipe.dispatch(0, *(op(seq, dest=int_reg(seq + 1)) for seq in range(3)))
        pipe.issue(1)
        assert [entry.issued for entry in entries] == [True, True, False]
        assert pipe.stats.issue_stalls_fu == 1
        assert not pipe.processor.fu_pool.can_issue(OpClass.INT_ALU, 1)
        pipe.issue(2)
        assert entries[2].issued

    def test_pipelined_units_free_next_cycle(self):
        pipe = StagedPipeline(functional_units=FunctionalUnitConfig(simple_fp=1))
        first, second = pipe.dispatch(0, op(0, OpClass.FP_MUL, dest=fp_reg(1)),
                                      op(1, OpClass.FP_MUL, dest=fp_reg(2)))
        pipe.issue(1)
        assert first.issued and not second.issued
        pipe.issue(2)
        assert second.issued

    def test_divider_busy_for_full_latency(self):
        pipe = StagedPipeline(functional_units=FunctionalUnitConfig(fp_div=1))
        first, second = pipe.dispatch(0, op(0, OpClass.FP_DIV, dest=fp_reg(1)),
                                      op(1, OpClass.FP_DIV, dest=fp_reg(2)))
        pipe.issue(1)
        assert first.issued
        for cycle in range(2, 15):
            pipe.issue(cycle)
            assert not second.issued, cycle
        pipe.issue(15)  # the 14-cycle divide issued in cycle 1 is done
        assert second.issued
        assert pipe.stats.issue_stalls_fu == 14

    def test_branches_use_simple_int_units(self):
        pipe = StagedPipeline(functional_units=FunctionalUnitConfig(simple_int=1))
        branch, alu, multiply = pipe.dispatch(
            0,
            op(0, OpClass.BRANCH),
            op(1, dest=int_reg(1)),
            op(2, OpClass.INT_MUL, dest=int_reg(2)),
        )
        pipe.issue(1)
        assert branch.issued and not alu.issued and multiply.issued


def _commits(instructions, **config):
    """Simulate ``instructions``; return the stats and ``(entry, cycle)`` commits."""
    recorder = CommitRecorder()
    stats = simulate(instructions, SingleBankedRegisterFile,
                     ProcessorConfig(**config), commit_observer=recorder)
    return stats, recorder.commits


def _divide_then_adds(count):
    """A 14-cycle divide followed by ``count`` independent 1-cycle adds."""
    return [op(0, OpClass.INT_DIV, dest=int_reg(1))] + [
        op(seq, dest=int_reg(2 + seq % 20)) for seq in range(1, count + 1)]


class TestReorderBuffer:
    def test_dispatch_commit_in_order(self):
        stats, commits = _commits(_divide_then_adds(10))
        assert [entry.seq for entry, _ in commits] == list(range(11))
        assert stats.committed_instructions == 11

    def test_commit_blocked_by_incomplete_head(self):
        _, commits = _commits(_divide_then_adds(4))
        (divide, divide_commit), *adds = commits
        for entry, cycle in adds:
            # Each add completed long before the divide, yet commits with
            # or after it.
            assert entry.complete_cycle < divide.complete_cycle
            assert cycle >= divide_commit

    def test_commit_width_respected(self):
        _, commits = _commits(_divide_then_adds(10), commit_width=4)
        per_cycle = {}
        for _, cycle in commits:
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        # Everything waits for the divide at the head, then drains four
        # per cycle.
        assert [count for _, count in sorted(per_cycle.items())] == [4, 4, 3]

    def test_completion_cycle_gates_commit(self):
        _, commits = _commits(_divide_then_adds(10))
        # Write-back and commit are separate stages: a completed entry
        # commits one cycle after it completes at the earliest.
        assert all(cycle > entry.complete_cycle for entry, cycle in commits)
        divide, cycle = commits[0]
        assert cycle == divide.complete_cycle + 1

    def test_overflow(self):
        stats, commits = _commits(_divide_then_adds(10), rob_size=4)
        assert stats.max_rob_occupancy == 4
        assert stats.dispatch_stalls_rob > 0
        assert len(commits) == 11

    def test_program_order_enforced(self):
        with pytest.raises(SimulationError, match="program order"):
            _commits([op(3, dest=int_reg(1)), op(1, dest=int_reg(2))])

    def test_out_of_order_commit_rejected(self):
        # Entries leave only from the head: younger entries that complete
        # first wait for the older one, then all commit in order.
        _, commits = _commits(_divide_then_adds(3))
        completion_order = sorted(commits, key=lambda commit: commit[0].complete_cycle)
        assert [entry.seq for entry, _ in completion_order] == [1, 2, 3, 0]
        assert [entry.seq for entry, _ in commits] == [0, 1, 2, 3]
        assert commits[0][1] == commits[-1][1]

    def test_holds_the_window_entry_itself(self):
        pipe = StagedPipeline()
        instruction = op(0, dest=int_reg(1))
        [entry] = pipe.dispatch(0, instruction)
        assert pipe.rob[0] is entry is pipe.window.entries[0]
        assert entry.instruction is instruction
        _, commits = _commits([instruction])
        assert commits[0][0].instruction is instruction


class TestScoreboard:
    """The value states the window keeps per live physical register."""

    def test_allocate_and_get(self):
        pipe = StagedPipeline()
        [entry] = pipe.dispatch(0, op(7, dest=int_reg(1)))
        state = entry.dest_state
        assert isinstance(state, ValueState)
        assert (state.register, state.producer_seq) == (entry.dest, 7)
        assert not state.produced
        assert pipe.window.values[entry.dest.uid] is state

    def test_get_unknown_raises(self):
        # A source without a value state is a renaming bug, reported at
        # dispatch.
        pipe = StagedPipeline()
        mapped = pipe.processor.renamer.current_mapping(int_reg(2))
        del pipe.window.values[mapped.uid]
        with pytest.raises(SimulationError, match="no scoreboard state"):
            pipe.dispatch(0, op(0, dest=int_reg(1), sources=[int_reg(2)]))

    def test_architected_seed_is_available(self):
        processor = Processor([], SingleBankedRegisterFile)
        values = processor.window.values
        logicals = INT_LOGICAL_REGISTERS + FP_LOGICAL_REGISTERS
        assert len(values) == len(logicals)
        for logical in logicals:
            state = values[processor.renamer.current_mapping(logical).uid]
            assert state.produced and state.written_back and state.rf_ready_cycle == 0

    def test_release(self):
        # Commit drops the value state of the register a destination
        # replaced; the new mapping keeps its state.
        recorder = CommitRecorder()
        processor = Processor([op(0, dest=int_reg(1))], SingleBankedRegisterFile,
                              commit_observer=recorder)
        replaced = processor.renamer.current_mapping(int_reg(1))
        processor.run()
        [(entry, _)] = recorder.commits
        assert entry.previous_dest is replaced
        assert replaced.uid not in processor.window.values
        assert processor.window.values[entry.dest.uid] is entry.dest_state


class TestBypassNetwork:
    """Producer-to-consumer timing for a file's bypass levels."""

    def test_validation(self):
        # Every register file bounds its bypass levels by its read stages.
        with pytest.raises(ConfigurationError):
            SingleBankedRegisterFile(latency=0, bypass_levels=0)
        with pytest.raises(ConfigurationError):
            SingleBankedRegisterFile(latency=1, bypass_levels=2)
        with pytest.raises(ConfigurationError):
            SingleBankedRegisterFile(latency=2, bypass_levels=0)

    @staticmethod
    def _producer_consumer(bypass_levels):
        pipe = StagedPipeline(lambda: SingleBankedRegisterFile(
            latency=2, bypass_levels=bypass_levels))
        producer, consumer = pipe.dispatch(
            0, op(0, dest=int_reg(1)), op(1, dest=int_reg(3), sources=[int_reg(1)]))
        pipe.issue(1)
        assert producer.issued
        return pipe, producer, consumer

    def test_full_bypass_back_to_back(self):
        pipe, producer, consumer = self._producer_consumer(bypass_levels=2)
        assert pipe.processor.consumer_offset == 1
        # Issued in 1, the producer executes in 3; the consumer executes
        # in the next cycle, so it issues in 2.
        assert producer.dest_state.ex_end_cycle == 3
        assert consumer.earliest_ex_cycle == 4
        pipe.issue(2)
        assert consumer.issued

    def test_missing_level_adds_latency(self):
        pipe, producer, consumer = self._producer_consumer(bypass_levels=1)
        assert pipe.processor.consumer_offset == 2
        assert producer.dest_state.ex_end_cycle == 3
        assert consumer.earliest_ex_cycle == 5
        pipe.issue(2)
        assert not consumer.issued
        pipe.issue(3)
        assert consumer.issued
