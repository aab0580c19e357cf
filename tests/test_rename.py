"""Unit tests for the renaming substrate (free list, map table, renamer).

The renamer allocates from its free lists in place; the commit stage
releases the mapping a committed destination replaced, so the commit
tests run whole (tiny) simulations.
"""

import pytest

from staged_pipeline import CommitRecorder

from repro.errors import ConfigurationError, RenameError
from repro.execute.issue_queue import IssueQueueEntry
from repro.isa.instruction import (
    DynamicInstruction,
    FP_LOGICAL_REGISTERS,
    INT_LOGICAL_REGISTERS,
    RegisterClass,
)
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.rename.free_list import FreeList
from repro.rename.renamer import PhysicalRegister, Renamer


class TestFreeList:
    def test_allocate_release_cycle(self):
        # Renaming takes the free registers oldest first; releasing the
        # replaced mappings, as the commit stage does, refills the list.
        renamer = Renamer(36, 64)
        free = renamer.int_free
        records = [renamer.rename(IssueQueueEntry(_alu(seq, dest=seq + 1)))
                   for seq in range(4)]
        assert [record.dest.index for record in records] == [32, 33, 34, 35]
        assert not free.free and not free.members
        for record in records:
            free.release(record.previous_dest.index)
        assert len(free.free) == 4
        assert list(free.free) == [1, 2, 3, 4]

    def test_underflow(self):
        # ``Renamer.rename`` allocates in place, underflow check included.
        renamer = Renamer(33, 64)
        renamer.rename(IssueQueueEntry(_alu(0, dest=1)))
        with pytest.raises(RenameError, match="no free int physical register for seq 1"):
            renamer.rename(IssueQueueEntry(_alu(1, dest=2)))
        assert len(renamer.int_free.free) == 0

    def test_double_release_rejected(self):
        free = FreeList(range(1, 2), valid_registers=range(2))
        free.release(0)
        with pytest.raises(RenameError):
            free.release(0)

    def test_double_release_rejected_after_reallocation(self):
        renamer = Renamer(36, 64)
        free = renamer.int_free
        first = renamer.rename(IssueQueueEntry(_alu(0, dest=1))).previous_dest.index
        second = renamer.rename(IssueQueueEntry(_alu(1, dest=2))).previous_dest.index
        free.release(first)
        with pytest.raises(RenameError):
            free.release(first)
        # ``first`` went to the tail of the FIFO; taking every register
        # again and releasing one keeps the membership set in step.
        taken = [renamer.rename(IssueQueueEntry(_alu(seq, dest=3))).dest.index
                 for seq in range(2, 5)]
        assert taken == [34, 35, first]
        free.release(second)
        with pytest.raises(RenameError):
            free.release(second)
        assert len(free.free) == 1 and free.members == {second}

    def test_foreign_register_rejected(self):
        free = FreeList(range(2))
        with pytest.raises(RenameError):
            free.release(99)

    def test_valid_registers_can_be_released_even_if_not_initially_free(self):
        free = FreeList(range(2, 4), valid_registers=range(4))
        free.release(0)
        assert list(free.free) == [2, 3, 0]
        assert free.members == {0, 2, 3}

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError):
            FreeList([1, 1, 2])


class TestMapTable:
    def test_mapped_physical_registers(self):
        # Every logical register starts mapped to the physical register of
        # its own index, in one slot list for both classes.
        renamer = Renamer(64, 64)
        assert len(renamer.map) == 2 * len(INT_LOGICAL_REGISTERS)
        for logical in INT_LOGICAL_REGISTERS + FP_LOGICAL_REGISTERS:
            physical = renamer.current_mapping(logical)
            assert (physical.reg_class, physical.index) == (logical.reg_class, logical.index)


def _alu(seq, dest, sources=()):
    return DynamicInstruction(seq=seq, op_class=OpClass.INT_ALU,
                              dest=INT_LOGICAL_REGISTERS[dest],
                              sources=tuple(INT_LOGICAL_REGISTERS[s] for s in sources))


class TestRenamer:
    def test_requires_more_physical_than_logical(self):
        with pytest.raises(ConfigurationError):
            Renamer(num_int_physical=32, num_fp_physical=128)

    def test_rename_allocates_new_destination(self):
        renamer = Renamer(64, 64)
        before = renamer.current_mapping(INT_LOGICAL_REGISTERS[1])
        renamed = renamer.rename(IssueQueueEntry(_alu(0, dest=1, sources=(2, 3))))
        after = renamer.current_mapping(INT_LOGICAL_REGISTERS[1])
        assert renamed.dest == after
        assert renamed.previous_dest == before
        assert after != before

    def test_sources_use_current_mapping(self):
        renamer = Renamer(64, 64)
        first = renamer.rename(IssueQueueEntry(_alu(0, dest=1)))
        second = renamer.rename(IssueQueueEntry(_alu(1, dest=2, sources=(1,))))
        assert second.sources[0] == first.dest

    def test_free_list_exhaustion(self):
        renamer = Renamer(34, 34)   # only 2 spare registers per class
        renamer.rename(IssueQueueEntry(_alu(0, dest=1)))
        renamer.rename(IssueQueueEntry(_alu(1, dest=2)))
        assert not renamer.int_free.free
        with pytest.raises(RenameError):
            renamer.rename(IssueQueueEntry(_alu(2, dest=3)))

    def test_commit_releases_previous_mapping(self):
        # Two writers of r1: the commit stage frees the register each one
        # replaced and drops that register's value state.
        recorder = CommitRecorder()
        processor = Processor([_alu(0, dest=1), _alu(1, dest=1)], SingleBankedRegisterFile,
                              ProcessorConfig(num_int_physical=34), commit_observer=recorder)
        processor.run()
        first, second = [entry for entry, _ in recorder.commits]
        assert second.previous_dest is first.dest
        assert list(processor.renamer.int_free.free) == [
            first.previous_dest.index, first.dest.index]
        values = processor.window.values
        assert first.previous_dest.uid not in values and first.dest.uid not in values
        assert values[second.dest.uid].register is second.dest

    def test_commit_without_destination_releases_nothing(self):
        store = DynamicInstruction(seq=0, op_class=OpClass.STORE, mem_address=0x100,
                                   sources=(INT_LOGICAL_REGISTERS[1], INT_LOGICAL_REGISTERS[2]))
        processor = Processor([store], SingleBankedRegisterFile)
        free_before = list(processor.renamer.int_free.free)
        values_before = set(processor.window.values)
        stats = processor.run()
        assert stats.committed_instructions == 1
        assert list(processor.renamer.int_free.free) == free_before
        assert set(processor.window.values) == values_before

    def test_fp_and_int_pools_are_independent(self):
        renamer = Renamer(34, 64)
        fp_inst = DynamicInstruction(seq=0, op_class=OpClass.FP_ALU,
                                     dest=FP_LOGICAL_REGISTERS[1])
        renamer.rename(IssueQueueEntry(fp_inst))
        assert len(renamer.int_free.free) == 2
        assert len(renamer.fp_free.free) == 31

    def test_in_use_registers(self):
        # In use = the physical registers not on the free list.
        renamer = Renamer(64, 64)
        assert 64 - len(renamer.int_free.free) == 32
        renamer.rename(IssueQueueEntry(_alu(0, dest=1)))
        assert 64 - len(renamer.int_free.free) == 33

    def test_physical_register_str(self):
        assert str(PhysicalRegister(RegisterClass.INT, 3)) == "p3"
        assert str(PhysicalRegister(RegisterClass.FP, 3)) == "pf3"
