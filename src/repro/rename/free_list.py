"""Free list of physical registers."""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import ConfigurationError, RenameError


class FreeList:
    """FIFO free list of physical register identifiers.

    Physical registers are plain integers.  The free list is a FIFO so
    register identifiers are recycled in a round-robin fashion, which is
    both realistic and makes simulations deterministic.  A membership set
    mirrors the FIFO, so the double-release check on every commit is a
    hash lookup rather than a scan of the free registers.
    """

    def __init__(self, registers: Iterable[int],
                 valid_registers: Iterable[int] | None = None) -> None:
        """Create a free list.

        Parameters
        ----------
        registers:
            Registers that are free initially.
        valid_registers:
            The full register space this pool manages (registers that are
            currently mapped may be released into the pool later).
            Defaults to ``registers``.
        """
        self._free = deque(registers)
        #: The registers in ``_free``, as a set.
        self._members = set(self._free)
        if len(self._members) != len(self._free):
            raise ConfigurationError("free list initialized with duplicate registers")
        self._valid = (set(valid_registers) if valid_registers is not None
                       else set(self._members))
        if not self._members <= self._valid:
            raise ConfigurationError("initially free registers must be within the valid set")

    def __len__(self) -> int:
        return len(self._free)

    @property
    def empty(self) -> bool:
        return not self._free

    def allocate(self) -> int:
        """Pop a free physical register.

        Raises
        ------
        RenameError
            If no register is free (the caller must check first).
        """
        if not self._free:
            raise RenameError("free list underflow")
        register = self._free.popleft()
        self._members.discard(register)
        return register

    def release(self, register: int) -> None:
        """Return a physical register to the pool.

        Raises
        ------
        RenameError
            If the register is already free (double release) or was never
            part of this free list's register space.
        """
        if register not in self._valid:
            raise RenameError(f"physical register {register} does not belong to this pool")
        members = self._members
        if register in members:
            raise RenameError(f"double release of physical register {register}")
        members.add(register)
        self._free.append(register)
