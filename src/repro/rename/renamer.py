"""The register renamer.

Dynamically scheduled processors rename logical to physical registers at
decode so every in-flight result gets its own physical register (Section
2 of the paper).  The renamer here keeps one map table and one free list
per register class (integer and floating point), supports checkpointing
for recovery, and records the *previous* mapping of each destination so
the physical register can be released when the next writer of the same
logical register commits (the paper's "registers are released late"
observation).
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

        self._map: Dict[RegisterClass, MapTable] = {}
        self._free: Dict[RegisterClass, FreeList] = {}
        self._checkpoints: Dict[int, dict] = {}
        self._next_checkpoint_id = 0

        for reg_class, count, logicals in (
            (RegisterClass.INT, num_int_physical, INT_LOGICAL_REGISTERS),
            (RegisterClass.FP, num_fp_physical, FP_LOGICAL_REGISTERS),
        ):
            initial = {logical: i for i, logical in enumerate(logicals)}
            self._map[reg_class] = MapTable(initial)
            self._free[reg_class] = FreeList(
                range(len(logicals), count), valid_registers=range(count)
            )

        # Hot-path shortcuts: renaming happens for every dispatched
        # instruction, so skip the enum-keyed dictionary hops and reuse
        # one interned PhysicalRegister object per (class, index) instead
        # of allocating a fresh one per source operand.
        self._int_map = self._map[RegisterClass.INT]
        self._fp_map = self._map[RegisterClass.FP]
        self._int_free = self._free[RegisterClass.INT]
        self._fp_free = self._free[RegisterClass.FP]
        self._int_physical: tuple[PhysicalRegister, ...] = tuple(
            PhysicalRegister(RegisterClass.INT, i) for i in range(num_int_physical)
        )
        self._fp_physical: tuple[PhysicalRegister, ...] = tuple(
            PhysicalRegister(RegisterClass.FP, i) for i in range(num_fp_physical)
        )

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
        if register.reg_class is RegisterClass.INT:
            return self._int_physical[self._int_map.lookup(register)]
        return self._fp_physical[self._fp_map.lookup(register)]

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
        int_physical = self._int_physical
        fp_physical = self._fp_physical
        int_slots = self._int_map._slots
        fp_slots = self._fp_map._slots
        # A list comprehension, not a generator: it skips a generator
        # frame per renamed instruction.
        record.sources = tuple([
            int_physical[int_slots[src._hash]]
            if src.reg_class is RegisterClass.INT
            else fp_physical[fp_slots[src._hash]]
            for src in instruction.sources
        ])
        logical = instruction.dest
        if logical is None:
            record.dest = None
            record.previous_dest = None
            return record
        reg_class = logical.reg_class
        if reg_class is RegisterClass.INT:
            free_list, table, physical = (
                self._int_free, self._int_map, self._int_physical)
        else:
            free_list, table, physical = (
                self._fp_free, self._fp_map, self._fp_physical)
        try:
            new_index = free_list.allocate()
        except RenameError:
            raise RenameError(
                f"no free {reg_class.value} physical register for seq "
                f"{instruction.seq}"
            ) from None
        old_index = table.update(logical, new_index)
        record.dest = physical[new_index]
        record.previous_dest = None if old_index is None else physical[old_index]
        return record

    # ------------------------------------------------------------------
    # retirement / recovery
    # ------------------------------------------------------------------

    def commit(self, record: "IssueQueueEntry") -> Optional[PhysicalRegister]:
        """Commit ``record``: release the previous mapping of its destination.

        Returns the released physical register (or ``None``).
        """
        if record.previous_dest is None:
            return None
        self._free[record.previous_dest.reg_class].release(record.previous_dest.index)
        return record.previous_dest

    def squash(self, record: "IssueQueueEntry") -> None:
        """Undo the rename of a squashed (never committed) instruction.

        The *new* destination register is returned to the free list and
        the previous mapping is restored, provided the instruction is
        squashed in reverse program order (youngest first).
        """
        if record.dest is None:
            return
        reg_class = record.dest.reg_class
        current = self._map[reg_class].lookup(record.instruction.dest)
        if current != record.dest.index:
            raise RenameError(
                "squash must proceed youngest-first; mapping already overwritten"
            )
        if record.previous_dest is not None:
            self._map[reg_class].update(record.instruction.dest, record.previous_dest.index)
        self._free[reg_class].release(record.dest.index)

    def checkpoint(self) -> int:
        """Take a checkpoint of the full rename state; returns its id."""
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        self._checkpoints[checkpoint_id] = {
            reg_class: (self._map[reg_class].checkpoint(), self._free[reg_class].snapshot())
            for reg_class in (RegisterClass.INT, RegisterClass.FP)
        }
        return checkpoint_id

    def restore(self, checkpoint_id: int) -> None:
        """Restore a checkpoint taken with :meth:`checkpoint`."""
        try:
            saved = self._checkpoints.pop(checkpoint_id)
        except KeyError as exc:
            raise RenameError(f"unknown checkpoint {checkpoint_id}") from exc
        for reg_class, (mapping, free) in saved.items():
            self._map[reg_class].restore(mapping)
            self._free[reg_class].restore(free)

    # ------------------------------------------------------------------

    def in_use_registers(self, reg_class: RegisterClass) -> int:
        """Number of physical registers currently not free."""
        total = self.num_int_physical if reg_class is RegisterClass.INT else self.num_fp_physical
        return total - len(self._free[reg_class])
