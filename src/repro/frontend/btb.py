"""Branch target buffer.

The BTB caches targets of taken branches so the front end can redirect
fetch without decoding the branch.  In this timing model the target of a
predicted-taken branch is only available if the BTB hits; otherwise the
fetch redirect costs one extra cycle (modelled by the fetch unit).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigurationError


class BranchTargetBuffer:
    """A set-associative BTB with LRU replacement.

    Parameters
    ----------
    num_entries:
        Total number of entries (must be a positive power of two).
    associativity:
        Ways per set.
    """

    def __init__(self, num_entries: int = 4096, associativity: int = 4) -> None:
        if num_entries <= 0 or num_entries & (num_entries - 1):
            raise ConfigurationError("num_entries must be a positive power of two")
        if associativity <= 0 or num_entries % associativity:
            raise ConfigurationError("associativity must divide num_entries")
        self.num_sets = num_entries // associativity
        self.associativity = associativity
        self._sets: list[OrderedDict[int, int]] = [OrderedDict() for _ in range(self.num_sets)]

    def _set_index(self, pc: int) -> int:
        return (pc >> 2) % self.num_sets

    def lookup(self, pc: int) -> int | None:
        """Return the cached target for the branch at ``pc`` or ``None``."""
        entry_set = self._sets[self._set_index(pc)]
        target = entry_set.get(pc)
        if target is not None:
            entry_set.move_to_end(pc)
        return target

    def insert(self, pc: int, target: int) -> None:
        """Record the target of a taken branch."""
        entry_set = self._sets[self._set_index(pc)]
        if pc in entry_set:
            entry_set[pc] = target
            entry_set.move_to_end(pc)
            return
        if len(entry_set) >= self.associativity:
            entry_set.popitem(last=False)
        entry_set[pc] = target
