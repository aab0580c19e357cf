"""The one-table renamer against a dictionary-based reference model.

Seeded random walks of rename and commit steps (including renames that
find the free list empty) drive the :class:`~repro.rename.renamer.Renamer` and a plain
reference (a dict keyed by ``(class, index)`` and FIFO free lists).  A
rename step calls ``Renamer.rename``; a commit step runs the release the
pipeline's commit stage runs, ``FreeList.release`` of the committed
record's ``previous_dest``.  Every instruction uses freshly built,
non-interned ``LogicalRegister`` objects, as the workload generator
does, so the map table's slot indexing sees registers that equal the
interned ones without being them.  After every step the renamed record,
every current mapping and the free lists must agree with the reference.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.errors import RenameError
from repro.execute.issue_queue import IssueQueueEntry
from repro.isa.instruction import (
    NUM_LOGICAL_PER_CLASS,
    DynamicInstruction,
    LogicalRegister,
    RegisterClass,
)
from repro.isa.opcodes import OpClass
from repro.rename.renamer import Renamer

INT = RegisterClass.INT
FP = RegisterClass.FP
CLASSES = (INT, FP)
PHYSICAL = {INT: 40, FP: 48}


class ReferenceRenamer:
    """Dictionary-based renaming: ``(class, index)`` -> physical index."""

    def __init__(self):
        logical = range(NUM_LOGICAL_PER_CLASS)
        self.mapping = {(c, index): index for c in CLASSES for index in logical}
        self.free = {c: deque(range(len(logical), PHYSICAL[c])) for c in CLASSES}

    def rename(self, instruction):
        mapping = self.mapping
        sources = [(s.reg_class, mapping[(s.reg_class, s.index)]) for s in instruction.sources]
        logical = instruction.dest
        if logical is None:
            return sources, None, None
        key = (logical.reg_class, logical.index)
        new = self.free[logical.reg_class].popleft()
        previous = mapping[key]
        mapping[key] = new
        return sources, (logical.reg_class, new), (logical.reg_class, previous)


def _fresh(reg_class, index):
    return LogicalRegister(reg_class, index)


def _random_register(rng):
    return _fresh(rng.choice(CLASSES), rng.randrange(NUM_LOGICAL_PER_CLASS))


def _random_instruction(rng, seq):
    reg_class = rng.choice(CLASSES)
    sources = tuple(_random_register(rng) for _ in range(rng.randrange(4)))
    dest = None
    if rng.random() < 0.8:
        dest = _fresh(reg_class, rng.randrange(NUM_LOGICAL_PER_CLASS))
    op_class = OpClass.FP_ALU if reg_class is FP else OpClass.INT_ALU
    return DynamicInstruction(seq=seq, op_class=op_class, dest=dest, sources=sources)


def _pair(physical):
    return None if physical is None else (physical.reg_class, physical.index)


def _check_state(renamer, reference):
    for (reg_class, index), physical in reference.mapping.items():
        mapped = renamer.current_mapping(_fresh(reg_class, index))
        assert _pair(mapped) == (reg_class, physical)
    for reg_class, free_list in ((INT, renamer.int_free), (FP, renamer.fp_free)):
        assert list(free_list.free) == list(reference.free[reg_class])
        assert free_list.members == set(reference.free[reg_class])


def _rename_step(rng, seq, renamer, reference, in_flight):
    instruction = _random_instruction(rng, seq)
    dest = instruction.dest
    if dest is not None and not reference.free[dest.reg_class]:
        with pytest.raises(RenameError):
            renamer.rename(IssueQueueEntry(instruction))
        return
    record = renamer.rename(IssueQueueEntry(instruction))
    sources, new, previous = reference.rename(instruction)
    assert [_pair(source) for source in record.sources] == sources
    assert _pair(record.dest) == new
    assert _pair(record.previous_dest) == previous
    in_flight.append(record)


@pytest.mark.parametrize("seed", range(8))
def test_random_walk_matches_reference(seed):
    rng = random.Random(seed)
    renamer = Renamer(PHYSICAL[INT], PHYSICAL[FP])
    reference = ReferenceRenamer()
    in_flight = []  # renamed, not yet committed; oldest first
    for seq in range(600):
        if rng.random() < 0.6 or not in_flight:
            _rename_step(rng, seq, renamer, reference, in_flight)
        else:
            released = in_flight.pop(0).previous_dest
            if released is not None:
                free_list = renamer.int_free if released.reg_class is INT else renamer.fp_free
                free_list.release(released.index)
                reference.free[released.reg_class].append(released.index)
        _check_state(renamer, reference)


class TestMapTableSlots:
    def test_non_interned_registers_share_a_slot(self):
        renamer = Renamer(PHYSICAL[INT], PHYSICAL[FP])
        record = renamer.rename(IssueQueueEntry(
            DynamicInstruction(seq=0, op_class=OpClass.FP_ALU, dest=_fresh(FP, 7))))
        assert renamer.current_mapping(_fresh(FP, 7)) is record.dest
        assert _pair(renamer.current_mapping(_fresh(INT, 7))) == (INT, 7)

    def test_slots_are_indexed_by_the_register_hash(self):
        renamer = Renamer(PHYSICAL[INT], PHYSICAL[FP])
        # Slot ``(index << 1) | is_fp``: f1 is slot 3 and r2 slot 4.
        assert [str(physical) for physical in renamer.map[3:5]] == ["pf1", "p2"]
        assert all(renamer.map[_fresh(c, i)._hash] is renamer.current_mapping(_fresh(c, i))
                   for c in CLASSES for i in range(NUM_LOGICAL_PER_CLASS))
