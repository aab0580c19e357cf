"""Unit tests for the issue queue (instruction window).

The pipeline's dispatch stage inserts into the window and its issue
stage selects, removes and wakes up in place, so these tests run those
stages on hand-built instructions (see ``staged_pipeline.py``).
"""

import pytest

from staged_pipeline import StagedPipeline, op

from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.isa.instruction import int_reg
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.regfile.cache import RegisterFileCache
from repro.regfile.monolithic import SingleBankedRegisterFile


class TestDispatchAndWakeup:
    def test_ready_at_dispatch_when_operands_available(self):
        pipe = StagedPipeline()
        [entry] = pipe.dispatch(5, op(0, dest=int_reg(1), sources=[int_reg(2)]))
        assert not entry.pending
        assert pipe.window.entries[0] is entry
        # Not selectable in the dispatch cycle, selectable from the next one.
        pipe.issue(5)
        assert not entry.issued
        pipe.issue(6)
        assert entry.issued

    def test_waits_for_unproduced_operand(self):
        pipe = StagedPipeline()
        producer, consumer = pipe.dispatch(
            0, op(0, dest=int_reg(1)), op(1, dest=int_reg(3), sources=[int_reg(1)]))
        assert consumer.pending and not producer.pending
        assert pipe.window.waiters[producer.dest.uid] == [consumer]
        # The producer executes in cycle 2; with one read stage and full
        # bypass the consumer can execute in 3, i.e. issue in 2.  It was
        # not ready when cycle 1 began, so it does not issue then.
        pipe.issue(1)
        assert producer.issued and not consumer.issued
        assert not consumer.pending and consumer.earliest_ex_cycle == 3
        assert producer.dest.uid not in pipe.window.waiters
        pipe.issue(2)
        assert consumer.issued

    def test_wakeup_with_missing_bypass_level_delays_consumer(self):
        pipe = StagedPipeline(lambda: SingleBankedRegisterFile(latency=2, bypass_levels=1))
        producer, consumer = pipe.dispatch(
            0, op(0, dest=int_reg(1)), op(1, dest=int_reg(3), sources=[int_reg(1)]))
        pipe.issue(1)
        # The producer ends executing in cycle 3; earliest consumer execute
        # = 3 + 1 + (2-1) = 5 -> earliest issue = 3.
        assert producer.issued
        assert consumer.earliest_ex_cycle == 5
        pipe.issue(2)
        assert not consumer.issued
        pipe.issue(3)
        assert consumer.issued

    def test_overflow(self):
        pipe = StagedPipeline(instruction_window=1)
        dispatched = pipe.dispatch(0, op(0, dest=int_reg(1)), op(1, dest=int_reg(2)))
        assert len(dispatched) == 1
        assert len(pipe.window.entries) == pipe.window.capacity
        assert pipe.stats.dispatch_stalls_window == 1
        assert pipe.stats.max_window_occupancy == 1


class TestSelect:
    def test_oldest_first_ordering(self):
        pipe = StagedPipeline(issue_width=1)
        older, younger = pipe.dispatch(
            0,
            op(5, dest=int_reg(1), sources=[int_reg(2)]),
            op(6, dest=int_reg(3), sources=[int_reg(2)]),
        )
        pipe.issue(1)
        assert older.issued and not younger.issued
        pipe.issue(2)
        assert younger.issued

    def test_mark_issued_removes_entry(self):
        pipe = StagedPipeline()
        [entry] = pipe.dispatch(0, op(0, dest=int_reg(1), sources=[int_reg(2)]))
        pipe.issue(1)
        assert entry.issued
        assert not pipe.window.entries
        # An issued entry that finds its way back into the window is
        # refused when it is selected again.
        pipe.window.entries[entry.seq] = entry
        with pytest.raises(SimulationError, match="issued twice"):
            pipe.issue(2)

    def test_defer_delays_selection(self):
        # The architected value of r2 sits only in the lower level of a
        # register file cache: the first attempt starts a fill and defers
        # the entry until the fill completes.
        pipe = StagedPipeline(RegisterFileCache)
        [entry] = pipe.dispatch(0, op(0, dest=int_reg(1), sources=[int_reg(2)]))
        pipe.issue(1)
        assert not entry.issued
        assert pipe.stats.issue_stalls_fill == 1
        # Lower-level read + upper-level write: readable from cycle 3,
        # executing from cycle 4.
        assert entry.earliest_ex_cycle == 4
        pipe.issue(2)
        assert not entry.issued
        pipe.issue(3)
        assert entry.issued
        assert pipe.stats.issue_stalls_fill == 1


class TestConsumersIndex:
    def test_waiting_consumers_of(self):
        # The register file cache's prefetch-first-pair reads the
        # consumer index.
        pipe = StagedPipeline(lambda: RegisterFileCache(fetch="prefetch-first-pair"))
        producer, divide, first, second = pipe.dispatch(
            0,
            op(0, dest=int_reg(1)),
            op(1, OpClass.INT_DIV, dest=int_reg(3)),
            op(2, dest=int_reg(4), sources=[int_reg(1)]),
            op(3, dest=int_reg(5), sources=[int_reg(1), int_reg(3)]),
        )
        consumers = pipe.window.waiting_consumers_of(producer.dest)
        assert [entry.seq for entry in consumers] == [2, 3]
        pipe.issue(1)
        assert producer.issued and divide.issued
        # ``first`` catches the producer on the bypass; ``second`` waits
        # for the 14-cycle divide.
        pipe.issue(2)
        assert first.issued and not second.issued
        assert pipe.window.waiting_consumers_of(producer.dest) == [second]

    def test_max_occupancy_tracked(self):
        # The pipeline's statistics report the window's peak occupancy: a
        # dependence chain fills a two-entry window.
        program = assemble("\n".join(["li r1, 1"] + ["add r1, r1, r1"] * 20))
        stats = simulate(program.run(), lambda: SingleBankedRegisterFile(latency=1),
                         ProcessorConfig(max_instructions=100, instruction_window=2))
        assert stats.max_window_occupancy == 2
