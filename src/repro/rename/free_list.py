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
    hash lookup rather than a scan of the free registers.  The renamer
    allocates in place (it pops ``free`` and drops the register from
    ``members``); the commit stage and the functional warm-up call
    :meth:`release`.
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
        #: The free registers, oldest first: rename pops the head, release
        #: appends at the tail.
        self.free = deque(registers)
        #: The registers in ``free``, as a set.
        self.members = set(self.free)
        if len(self.members) != len(self.free):
            raise ConfigurationError("free list initialized with duplicate registers")
        self._valid = (set(valid_registers) if valid_registers is not None
                       else set(self.members))
        if not self.members <= self._valid:
            raise ConfigurationError("initially free registers must be within the valid set")

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
        members = self.members
        if register in members:
            raise RenameError(f"double release of physical register {register}")
        members.add(register)
        self.free.append(register)
