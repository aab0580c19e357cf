"""Unit tests for the issue queue (instruction window)."""

import pytest

from repro.errors import SimulationError
from repro.execute.bypass import BypassNetwork
from repro.execute.issue_queue import IssueQueue, IssueQueueEntry
from repro.execute.scoreboard import ValueScoreboard
from repro.isa.assembler import assemble
from repro.isa.instruction import DynamicInstruction, INT_LOGICAL_REGISTERS, RegisterClass
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.rename.renamer import PhysicalRegister


def _phys(index):
    return PhysicalRegister(RegisterClass.INT, index)


def _renamed(seq, dest=None, sources=()):
    inst = DynamicInstruction(
        seq=seq, op_class=OpClass.INT_ALU,
        dest=INT_LOGICAL_REGISTERS[1] if dest is not None else None,
        sources=tuple(INT_LOGICAL_REGISTERS[2] for _ in sources),
    )
    return IssueQueueEntry(
        instruction=inst,
        dest=_phys(dest) if dest is not None else None,
        sources=tuple(_phys(s) for s in sources),
    )


def _queue(capacity=8, read_stages=1, bypass_levels=1):
    scoreboard = ValueScoreboard()
    bypass = BypassNetwork(read_stages, bypass_levels)
    return IssueQueue(capacity, scoreboard, bypass), scoreboard


class TestDispatchAndWakeup:
    def test_ready_at_dispatch_when_operands_available(self):
        queue, scoreboard = _queue()
        scoreboard.seed_architected(_phys(1))
        entry = queue.dispatch(_renamed(0, dest=40, sources=(1,)), cycle=5)
        assert not entry.pending
        # Not selectable in the dispatch cycle, selectable from the next one.
        assert queue.schedulable(5) == []
        assert queue.schedulable(6) == [entry]

    def test_waits_for_unproduced_operand(self):
        queue, scoreboard = _queue()
        scoreboard.allocate(_phys(50), producer_seq=0)
        entry = queue.dispatch(_renamed(1, dest=41, sources=(50,)), cycle=0)
        assert entry.pending
        assert queue.schedulable(10) == []
        became_ready = queue.wakeup(_phys(50), ex_end_cycle=7)
        assert became_ready == [entry]
        # With one read stage and full bypass, execution can start at 8,
        # i.e. issue at cycle 7.
        assert queue.schedulable(7) == [entry]
        assert queue.schedulable(6) == []

    def test_wakeup_with_missing_bypass_level_delays_consumer(self):
        queue, scoreboard = _queue(read_stages=2, bypass_levels=1)
        scoreboard.allocate(_phys(50), producer_seq=0)
        entry = queue.dispatch(_renamed(1, dest=41, sources=(50,)), cycle=0)
        queue.wakeup(_phys(50), ex_end_cycle=7)
        # earliest execute = 7 + 1 + (2-1) = 9 -> earliest issue = 7
        assert entry.earliest_ex_cycle == 9
        assert queue.schedulable(7) == [entry]

    def test_overflow(self):
        queue, scoreboard = _queue(capacity=1)
        scoreboard.seed_architected(_phys(1))
        queue.dispatch(_renamed(0, dest=40), cycle=0)
        assert queue.full
        with pytest.raises(SimulationError):
            queue.dispatch(_renamed(1, dest=41), cycle=0)


class TestSelect:
    def test_oldest_first_ordering(self):
        queue, scoreboard = _queue()
        scoreboard.seed_architected(_phys(1))
        older = queue.dispatch(_renamed(5, dest=41, sources=(1,)), cycle=0)
        younger = queue.dispatch(_renamed(6, dest=42, sources=(1,)), cycle=0)
        assert queue.schedulable(3) == [older, younger]

    def test_mark_issued_removes_entry(self):
        queue, scoreboard = _queue()
        scoreboard.seed_architected(_phys(1))
        entry = queue.dispatch(_renamed(0, dest=40, sources=(1,)), cycle=0)
        queue.mark_issued(entry)
        assert len(queue) == 0
        assert queue.schedulable(5) == []
        with pytest.raises(SimulationError):
            queue.mark_issued(entry)

    def test_defer_delays_selection(self):
        queue, scoreboard = _queue()
        scoreboard.seed_architected(_phys(1))
        entry = queue.dispatch(_renamed(0, dest=40, sources=(1,)), cycle=0)
        queue.defer(entry, until_cycle=10)
        assert queue.schedulable(5) == []
        assert queue.schedulable(10) == [entry]


class TestConsumersIndex:
    def test_waiting_consumers_of(self):
        queue, scoreboard = _queue()
        scoreboard.allocate(_phys(50), producer_seq=0)
        scoreboard.seed_architected(_phys(1))
        a = queue.dispatch(_renamed(1, dest=41, sources=(50,)), cycle=0)
        b = queue.dispatch(_renamed(2, dest=42, sources=(50, 1)), cycle=0)
        consumers = queue.waiting_consumers_of(_phys(50))
        assert {entry.seq for entry in consumers} == {1, 2}
        queue.mark_issued(a)
        consumers = queue.waiting_consumers_of(_phys(50))
        assert {entry.seq for entry in consumers} == {2}

    def test_max_occupancy_tracked(self):
        # The pipeline's statistics report the window's peak occupancy: a
        # dependence chain fills a two-entry window.
        program = assemble("\n".join(["li r1, 1"] + ["add r1, r1, r1"] * 20))
        stats = simulate(program.run(), lambda: SingleBankedRegisterFile(latency=1),
                         ProcessorConfig(max_instructions=100, instruction_window=2))
        assert stats.max_window_occupancy == 2
