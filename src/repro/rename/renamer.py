"""The register renamer.

Dynamically scheduled processors rename logical to physical registers at
decode so every in-flight result gets its own physical register (Section
2 of the paper).  The renamer here keeps one map table for both register
classes and one free list per class (integer and floating point), and
records the
*previous* mapping of each destination so the physical register can be
released when the next writer of the same logical register commits (the
paper's "registers are released late" observation).  The pipeline runs
the correct path only, so a renamed instruction always commits: there
is no squash, checkpoint or restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List

from repro.errors import ConfigurationError, RenameError
from repro.isa.instruction import (
    NUM_LOGICAL_PER_CLASS,
    LogicalRegister,
    RegisterClass,
    INT_LOGICAL_REGISTERS,
    FP_LOGICAL_REGISTERS,
)
from repro.rename.free_list import FreeList

if TYPE_CHECKING:  # pragma: no cover - the window imports this module
    from repro.execute.issue_queue import IssueQueueEntry

# Enum members bound once, as in ``repro.pipeline.processor``.
_INT = RegisterClass.INT


@dataclass(frozen=True)
class PhysicalRegister:
    """A physical register identifier (register class + index)."""

    reg_class: RegisterClass
    index: int

    def __post_init__(self) -> None:
        # Physical registers key the scoreboard, the wakeup/consumer
        # indexes and the register-file-cache structures — the hottest
        # dictionaries in the simulator.  The generated dataclass hash
        # allocates a tuple per call; cache an equality-consistent
        # integer instead.  ``uid`` is the same integer under its public
        # name: the hot structures key their dictionaries by it directly,
        # which hashes at C speed instead of through this class's
        # Python-level ``__hash__``.
        uid = (self.index << 1) | (self.reg_class is RegisterClass.FP)
        object.__setattr__(self, "_hash", uid)
        object.__setattr__(self, "uid", uid)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        prefix = "p" if self.reg_class is RegisterClass.INT else "pf"
        return f"{prefix}{self.index}"


@lru_cache(maxsize=None)
def _physical_registers(reg_class: RegisterClass, count: int) -> tuple[PhysicalRegister, ...]:
    """The interned physical registers ``0 .. count - 1`` of ``reg_class``.

    Built once per process for each (class, count) and shared by every
    renamer: the registers are immutable, and a processor only compares
    its own registers, by identity.
    """
    return tuple(PhysicalRegister(reg_class, i) for i in range(count))


class Renamer:
    """Renames logical registers of a dynamic instruction stream."""

    def __init__(self, num_int_physical: int = 128, num_fp_physical: int = 128) -> None:
        num_logical = len(INT_LOGICAL_REGISTERS)
        if num_int_physical <= num_logical or num_fp_physical <= num_logical:
            raise ConfigurationError(
                f"need more physical than logical registers "
                f"({num_logical} logical per class)"
            )
        self.num_int_physical = num_int_physical
        self.num_fp_physical = num_fp_physical

        # One interned PhysicalRegister object per (class, index), reused
        # by every rename instead of allocating one per operand.
        self._int_physical = _physical_registers(RegisterClass.INT, num_int_physical)
        self._fp_physical = _physical_registers(RegisterClass.FP, num_fp_physical)
        self.int_free = FreeList(
            range(num_logical, num_int_physical), valid_registers=range(num_int_physical)
        )
        self.fp_free = FreeList(
            range(num_logical, num_fp_physical), valid_registers=range(num_fp_physical)
        )
        #: The map table: the current PhysicalRegister of every logical
        #: register, both classes in one list indexed by the logical
        #: register's cached integer hash (``(index << 1) | is_fp``).  A
        #: lookup is one list index whatever the register object (interned
        #: or not), with no class branch and no Python-level
        #: ``__hash__``/``__eq__`` call.  Every slot is mapped from the
        #: start, and the list is never rebound.
        self.map: List[PhysicalRegister] = [None] * (2 * NUM_LOGICAL_PER_CLASS)
        for logicals, physical in ((INT_LOGICAL_REGISTERS, self._int_physical),
                                   (FP_LOGICAL_REGISTERS, self._fp_physical)):
            for i, logical in enumerate(logicals):
                self.map[logical._hash] = physical[i]

    def current_mapping(self, register: LogicalRegister) -> PhysicalRegister:
        """The physical register ``register`` is currently mapped to."""
        return self.map[register._hash]

    # ------------------------------------------------------------------
    # renaming
    # ------------------------------------------------------------------

    def rename(self, record: "IssueQueueEntry") -> "IssueQueueEntry":
        """Rename ``record.instruction`` (sources first, then the destination).

        Fills the record's ``sources``, ``dest`` and ``previous_dest`` and
        returns it.  ``record`` is the in-flight record the pipeline
        dispatches (:class:`~repro.execute.issue_queue.IssueQueueEntry`).

        Raises
        ------
        RenameError
            If no free physical register is available for the destination;
            the dispatch stage stalls before that happens.
        """
        instruction = record.instruction
        current = self.map
        # Unrolled for the one- and two-source common cases: a list
        # comprehension costs a function frame per renamed instruction.
        sources = instruction.sources
        count = len(sources)
        if count == 2:
            record.sources = (current[sources[0]._hash], current[sources[1]._hash])
        elif count == 1:
            record.sources = (current[sources[0]._hash],)
        else:
            record.sources = tuple([current[src._hash] for src in sources])
        logical = instruction.dest
        if logical is None:
            record.dest = None
            record.previous_dest = None
            return record
        if logical.reg_class is _INT:
            free_list, physical = self.int_free, self._int_physical
        else:
            free_list, physical = self.fp_free, self._fp_physical
        # Allocate the oldest free register.
        free = free_list.free
        if not free:
            raise RenameError(
                f"no free {logical.reg_class.value} physical register for seq "
                f"{instruction.seq}"
            )
        new_index = free.popleft()
        free_list.members.discard(new_index)
        dest = physical[new_index]
        slot = logical._hash
        record.previous_dest = current[slot]
        current[slot] = dest
        record.dest = dest
        return record
