"""Logical → physical register map table."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import RenameError
from repro.isa.instruction import (
    FP_LOGICAL_REGISTERS,
    INT_LOGICAL_REGISTERS,
    NUM_LOGICAL_PER_CLASS,
    LogicalRegister,
)

#: The interned logical register of each slot, in slot order.
_SLOT_REGISTERS: List[LogicalRegister] = sorted(
    INT_LOGICAL_REGISTERS + FP_LOGICAL_REGISTERS, key=lambda register: register._hash
)


class MapTable:
    """The speculative rename map from logical to physical registers.

    One flat slot list covers both register classes, indexed by the
    logical register's cached integer hash (``(index << 1) | is_fp``):
    a lookup is one list index whatever the register object (interned or
    not), with no Python-level ``__hash__``/``__eq__`` call.  The slot
    list is never rebound, so the renamer reads and writes it directly
    on its hot path.
    """

    _NUM_SLOTS = NUM_LOGICAL_PER_CLASS * 2

    def __init__(self, initial: Dict[LogicalRegister, object] | None = None) -> None:
        self._slots: List[Optional[object]] = [None] * self._NUM_SLOTS
        for register, physical in (initial or {}).items():
            self._slots[register._hash] = physical

    def lookup(self, register: LogicalRegister):
        """Return the physical register currently mapped to ``register``.

        Raises
        ------
        RenameError
            If the logical register has no mapping (the renamer always
            seeds an initial mapping, so this indicates a bug).
        """
        physical = self._slots[register._hash]
        if physical is None:
            raise RenameError(f"logical register {register} has no mapping")
        return physical

    def items(self) -> Iterable[tuple[LogicalRegister, object]]:
        """``(logical, physical)`` for every mapped register, in slot order."""
        return [
            (register, physical)
            for register, physical in zip(_SLOT_REGISTERS, self._slots)
            if physical is not None
        ]

    def __len__(self) -> int:
        return self._NUM_SLOTS - self._slots.count(None)
