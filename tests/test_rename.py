"""Unit tests for the renaming substrate (free list, map table, renamer)."""

import pytest

from repro.errors import ConfigurationError, RenameError
from repro.execute.issue_queue import IssueQueueEntry
from repro.isa.instruction import (
    DynamicInstruction,
    FP_LOGICAL_REGISTERS,
    INT_LOGICAL_REGISTERS,
    RegisterClass,
)
from repro.isa.opcodes import OpClass
from repro.rename.free_list import FreeList
from repro.rename.map_table import MapTable
from repro.rename.renamer import PhysicalRegister, Renamer


class TestFreeList:
    def test_allocate_release_cycle(self):
        free = FreeList(range(4))
        registers = [free.allocate() for _ in range(4)]
        assert free.empty
        for register in registers:
            free.release(register)
        assert len(free) == 4

    def test_underflow(self):
        free = FreeList([])
        with pytest.raises(RenameError):
            free.allocate()

    def test_double_release_rejected(self):
        free = FreeList(range(2))
        register = free.allocate()
        free.release(register)
        with pytest.raises(RenameError):
            free.release(register)

    def test_double_release_rejected_after_reallocation(self):
        free = FreeList(range(4))
        first = free.allocate()
        second = free.allocate()
        free.release(first)
        with pytest.raises(RenameError):
            free.release(first)
        # ``first`` went to the tail of the FIFO; taking every register
        # again and releasing one keeps the membership set in step.
        assert [free.allocate() for _ in range(3)] == [2, 3, first]
        free.release(second)
        with pytest.raises(RenameError):
            free.release(second)
        assert len(free) == 1

    def test_foreign_register_rejected(self):
        free = FreeList(range(2))
        with pytest.raises(RenameError):
            free.release(99)

    def test_valid_registers_can_be_released_even_if_not_initially_free(self):
        free = FreeList(range(2, 4), valid_registers=range(4))
        free.release(0)
        assert [free.allocate() for _ in range(3)] == [2, 3, 0]

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError):
            FreeList([1, 1, 2])


class TestMapTable:
    def test_lookup_unmapped_raises(self):
        table = MapTable()
        with pytest.raises(RenameError):
            table.lookup(INT_LOGICAL_REGISTERS[0])

    def test_mapped_physical_registers(self):
        table = MapTable({INT_LOGICAL_REGISTERS[0]: 5, INT_LOGICAL_REGISTERS[1]: 6})
        assert {physical for _, physical in table.items()} == {5, 6}


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
        assert not renamer.can_rename(_alu(2, dest=3))
        with pytest.raises(RenameError):
            renamer.rename(IssueQueueEntry(_alu(2, dest=3)))

    def test_commit_releases_previous_mapping(self):
        renamer = Renamer(34, 34)
        first = renamer.rename(IssueQueueEntry(_alu(0, dest=1)))
        free_before = renamer.free_count(RegisterClass.INT)
        released = renamer.commit(first)
        assert released == first.previous_dest
        assert renamer.free_count(RegisterClass.INT) == free_before + 1

    def test_commit_without_destination_releases_nothing(self):
        renamer = Renamer(64, 64)
        branch = DynamicInstruction(seq=0, op_class=OpClass.BRANCH,
                                    sources=(INT_LOGICAL_REGISTERS[1],))
        renamed = renamer.rename(IssueQueueEntry(branch))
        assert renamer.commit(renamed) is None

    def test_fp_and_int_pools_are_independent(self):
        renamer = Renamer(34, 64)
        fp_inst = DynamicInstruction(seq=0, op_class=OpClass.FP_ALU,
                                     dest=FP_LOGICAL_REGISTERS[1])
        renamer.rename(IssueQueueEntry(fp_inst))
        assert renamer.free_count(RegisterClass.INT) == 2
        assert renamer.free_count(RegisterClass.FP) == 31

    def test_in_use_registers(self):
        # In use = the physical registers not on the free list.
        renamer = Renamer(64, 64)
        assert 64 - renamer.free_count(RegisterClass.INT) == 32
        renamer.rename(IssueQueueEntry(_alu(0, dest=1)))
        assert 64 - renamer.free_count(RegisterClass.INT) == 33

    def test_physical_register_str(self):
        assert str(PhysicalRegister(RegisterClass.INT, 3)) == "p3"
        assert str(PhysicalRegister(RegisterClass.FP, 3)) == "pf3"
