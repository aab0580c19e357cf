"""The bitmask pseudo-LRU against a reference list-of-bits tree.

``PseudoLRU`` keeps its tree in one integer and touches a slot with one
mask-and-or.  The reference below keeps one list entry per tree node and
walks the tree by interval halving.  Seeded random sequences of touches,
inserts (with and without an eviction veto), removals and pinning must
pick the same victims and leave the same keys resident.
"""

from __future__ import annotations

import random

import pytest

from repro.regfile.replacement import PseudoLRU


class ReferenceTree:
    """Tree pseudo-LRU with one list entry per internal node."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.bits = [0] * max(1, capacity - 1)
        self.slot_of = {}
        self.key_at = [None] * capacity

    def touch_slot(self, slot):
        node, low, high = 0, 0, self.capacity
        while high - low > 1:
            mid = (low + high) // 2
            if slot < mid:
                self.bits[node] = 1  # the right half is now colder
                node, high = 2 * node + 1, mid
            else:
                self.bits[node] = 0
                node, low = 2 * node + 2, mid

    def victim_slot(self):
        node, low, high = 0, 0, self.capacity
        while high - low > 1:
            mid = (low + high) // 2
            if self.bits[node] == 0:
                node, high = 2 * node + 1, mid
            else:
                node, low = 2 * node + 2, mid
        return low

    def touch(self, key):
        self.touch_slot(self.slot_of[key])

    def insert(self, key, can_evict=None):
        if key in self.slot_of:
            self.touch(key)
            return None
        evicted = None
        if len(self.slot_of) >= self.capacity:
            slot = self.victim_slot()
            if can_evict is not None:
                for _ in range(self.capacity):
                    candidate = self.key_at[slot]
                    if candidate is None or can_evict(candidate):
                        break
                    self.touch_slot(slot)
                    slot = self.victim_slot()
            evicted = self.key_at[slot]
            if evicted is not None:
                del self.slot_of[evicted]
        else:
            slot = self.key_at.index(None)
        self.key_at[slot] = key
        self.slot_of[key] = slot
        self.touch_slot(slot)
        return evicted

    def remove(self, key):
        slot = self.slot_of.pop(key, None)
        if slot is None:
            return False
        self.key_at[slot] = None
        return True


@pytest.mark.parametrize("capacity", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("seed", range(8))
def test_bitmask_tree_picks_the_reference_victims(capacity, seed):
    rng = random.Random(f"{capacity}:{seed}")
    lru = PseudoLRU(capacity)
    reference = ReferenceTree(capacity)
    keys = range(3 * capacity + 2)
    pinned = set()
    evictions = 0
    for _ in range(600):
        op = rng.random()
        resident = sorted(reference.slot_of)
        if op < 0.35 and resident:
            key = rng.choice(resident)
            lru.touch(key)
            reference.touch(key)
        elif op < 0.75:
            key = rng.choice(keys)
            if rng.random() < 0.5:
                evicted = lru.insert(key)
                assert evicted == reference.insert(key)
            else:
                veto = frozenset(pinned)
                evicted = lru.insert(key, can_evict=lambda k: k not in veto)
                assert evicted == reference.insert(key, can_evict=lambda k: k not in veto)
            evictions += evicted is not None
        elif op < 0.85:
            key = rng.choice(keys)
            assert lru.remove(key) == reference.remove(key)
        elif op < 0.95 and resident:
            pinned.add(rng.choice(resident))
        else:
            pinned.clear()
        assert lru._victim_slot() == reference.victim_slot()
        assert lru.keys() == list(reference.slot_of)
        assert all(lru._slot_of[k] == reference.slot_of[k] for k in reference.slot_of)
    assert evictions > 0
