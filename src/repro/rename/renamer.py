"""The register renamer.

Dynamically scheduled processors rename logical to physical registers at
decode so every in-flight result gets its own physical register (Section
2 of the paper).  The renamer here keeps one map table and one free list
per register class (integer and floating point) and records the
*previous* mapping of each destination so the physical register can be
released when the next writer of the same logical register commits (the
paper's "registers are released late" observation).  The pipeline runs
the correct path only, so a renamed instruction always commits: there
is no squash, checkpoint or restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ConfigurationError, RenameError
from repro.isa.instruction import (
    DynamicInstruction,
    LogicalRegister,
    RegisterClass,
    INT_LOGICAL_REGISTERS,
    FP_LOGICAL_REGISTERS,
)
from repro.rename.free_list import FreeList
from repro.rename.map_table import MapTable

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
        self._int_physical: tuple[PhysicalRegister, ...] = tuple(
            PhysicalRegister(RegisterClass.INT, i) for i in range(num_int_physical)
        )
        self._fp_physical: tuple[PhysicalRegister, ...] = tuple(
            PhysicalRegister(RegisterClass.FP, i) for i in range(num_fp_physical)
        )
        self._int_free = FreeList(
            range(num_logical, num_int_physical), valid_registers=range(num_int_physical)
        )
        self._fp_free = FreeList(
            range(num_logical, num_fp_physical), valid_registers=range(num_fp_physical)
        )
        self._free: Dict[RegisterClass, FreeList] = {
            RegisterClass.INT: self._int_free,
            RegisterClass.FP: self._fp_free,
        }
        # One map table for both classes, holding the current
        # PhysicalRegister objects themselves: renaming a source is one
        # list index by the logical register's slot, with no class branch.
        initial = {}
        for logicals, physical in ((INT_LOGICAL_REGISTERS, self._int_physical),
                                   (FP_LOGICAL_REGISTERS, self._fp_physical)):
            for i, logical in enumerate(logicals):
                initial[logical] = physical[i]
        self._map = MapTable(initial)
        #: The map table's slot list (never rebound), read on the hot path.
        self._current = self._map._slots

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def free_count(self, reg_class: RegisterClass) -> int:
        """Number of currently free physical registers of ``reg_class``."""
        return len(self._free[reg_class])

    def can_rename(self, instruction: DynamicInstruction) -> bool:
        """Whether a free destination register is available for ``instruction``."""
        dest = instruction.dest
        if dest is None:
            return True
        free = (self._int_free if dest.reg_class is RegisterClass.INT
                else self._fp_free)
        return not free.empty

    def current_mapping(self, register: LogicalRegister) -> PhysicalRegister:
        return self._map.lookup(register)

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
            callers should check :meth:`can_rename` first.
        """
        instruction = record.instruction
        current = self._current
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
            free_list, physical = self._int_free, self._int_physical
        else:
            free_list, physical = self._fp_free, self._fp_physical
        # Inlined ``free_list.allocate()``, underflow check included.
        free = free_list._free
        if not free:
            raise RenameError(
                f"no free {logical.reg_class.value} physical register for seq "
                f"{instruction.seq}"
            )
        new_index = free.popleft()
        free_list._members.discard(new_index)
        dest = physical[new_index]
        slot = logical._hash
        record.previous_dest = current[slot]
        current[slot] = dest
        record.dest = dest
        return record

    # ------------------------------------------------------------------
    # retirement
    # ------------------------------------------------------------------

    def commit(self, record: "IssueQueueEntry") -> Optional[PhysicalRegister]:
        """Commit ``record``: release the previous mapping of its destination.

        Returns the released physical register (or ``None``).
        """
        if record.previous_dest is None:
            return None
        self._free[record.previous_dest.reg_class].release(record.previous_dest.index)
        return record.previous_dest
