"""Pseudo-LRU replacement for the fully-associative upper bank.

The paper specifies a fully-associative upper level with pseudo-LRU
replacement.  For the small capacities involved (16 registers) a
tree-based pseudo-LRU is modelled: entries are arranged at the leaves of
a complete binary tree whose internal nodes each hold one bit pointing
towards the "colder" half; a victim is found by following the bits, and a
touch sets the bits along the path to point away from the touched leaf.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Optional, TypeVar

from repro.errors import ConfigurationError, RegisterFileError

KeyT = TypeVar("KeyT", bound=Hashable)


class PseudoLRU(Generic[KeyT]):
    """Tree pseudo-LRU over a fixed number of ways.

    The tree is stored heap-style in one integer: internal node ``n`` is
    bit ``n`` of :attr:`_state` (0: the colder half is the left child
    ``2n+1``, 1: the right child ``2n+2``), and the leaves
    ``capacity-1 ... 2*capacity-2`` are the ways in slot order.  A touch
    is one mask-and-or, ``state = (state & _keep[slot]) | _set[slot]``,
    which the register file cache inlines on its hot paths.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ConfigurationError("PseudoLRU capacity must be a positive power of two")
        self.capacity = capacity
        #: The tree bits, one per internal node.
        self._state = 0
        #: Resident keys -> slot.  Never rebound; the register file cache
        #: reads it directly for residency checks.
        self._slot_of: Dict[KeyT, int] = {}
        self._key_at: List[Optional[KeyT]] = [None] * capacity
        # The path touched for each slot is fixed by the geometry: per
        # slot, ``_keep`` clears that path's bits and ``_set`` sets those
        # that must point away from the slot (to the other child).
        self._keep: List[int] = []
        self._set: List[int] = []
        everything = (1 << max(0, capacity - 1)) - 1
        for slot in range(capacity):
            path = set_bits = 0
            child = slot + capacity - 1
            while child:
                node = (child - 1) >> 1
                path |= 1 << node
                if child == 2 * node + 1:  # touched the left half: right is cold
                    set_bits |= 1 << node
                child = node
            self._keep.append(everything & ~path)
            self._set.append(set_bits)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, key: KeyT) -> bool:
        return key in self._slot_of

    @property
    def full(self) -> bool:
        return len(self._slot_of) >= self.capacity

    def keys(self) -> List[KeyT]:
        return list(self._slot_of)

    # ------------------------------------------------------------------

    def _victim_slot(self) -> int:
        """Follow the bits to the pseudo-least-recently-used slot."""
        state = self._state
        internal = self.capacity - 1
        node = 0
        while node < internal:
            node = 2 * node + 1 + ((state >> node) & 1)
        return node - internal

    # ------------------------------------------------------------------

    def touch(self, key: KeyT) -> None:
        """Mark ``key`` as recently used.

        Raises
        ------
        RegisterFileError
            If ``key`` is not currently resident.
        """
        slot = self._slot_of.get(key)
        if slot is None:
            raise RegisterFileError(f"cannot touch non-resident key {key!r}")
        self._state = (self._state & self._keep[slot]) | self._set[slot]

    def insert(self, key: KeyT, can_evict=None) -> Optional[KeyT]:
        """Insert ``key``; returns the evicted key (or ``None``).

        Inserting a resident key just touches it.  ``can_evict`` is an
        optional predicate over candidate victims: candidates it rejects
        are touched (marked hot) and another victim is tried, up to one
        pass over the ways; if every way is rejected the last candidate is
        evicted anyway so insertion always makes forward progress.
        """
        slot_of = self._slot_of
        slot = slot_of.get(key)
        if slot is None:
            key_at = self._key_at
            evicted: Optional[KeyT] = None
            if len(slot_of) >= self.capacity:
                slot = self._victim_slot()
                if can_evict is not None:
                    for _ in range(self.capacity):
                        candidate = key_at[slot]
                        if candidate is None or can_evict(candidate):
                            break
                        self._state = (self._state & self._keep[slot]) | self._set[slot]
                        slot = self._victim_slot()
                evicted = key_at[slot]
                if evicted is not None:
                    del slot_of[evicted]
            else:
                slot = key_at.index(None)
            key_at[slot] = key
            slot_of[key] = slot
        else:
            evicted = None
        self._state = (self._state & self._keep[slot]) | self._set[slot]
        return evicted

    def remove(self, key: KeyT) -> bool:
        """Remove ``key`` if resident; returns whether it was present."""
        slot = self._slot_of.pop(key, None)
        if slot is None:
            return False
        self._key_at[slot] = None
        return True
