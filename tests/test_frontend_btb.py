"""Unit tests for the branch target buffer."""

import pytest

from repro.errors import ConfigurationError
from repro.frontend.btb import BranchTargetBuffer


class TestBTB:
    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer(num_entries=100)
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer(num_entries=128, associativity=3)

    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(num_entries=64, associativity=4)
        assert btb.lookup(0x1000) is None
        btb.insert(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_update_existing_entry(self):
        btb = BranchTargetBuffer(num_entries=64, associativity=4)
        btb.insert(0x1000, 0x2000)
        btb.insert(0x1000, 0x3000)
        assert btb.lookup(0x1000) == 0x3000

    def test_lru_eviction_within_set(self):
        btb = BranchTargetBuffer(num_entries=8, associativity=2)
        sets = btb.num_sets
        # Three branches mapping to the same set: the oldest is evicted.
        pcs = [0x1000, 0x1000 + 4 * sets, 0x1000 + 8 * sets]
        btb.insert(pcs[0], 1)
        btb.insert(pcs[1], 2)
        btb.insert(pcs[2], 3)
        assert btb.lookup(pcs[0]) is None
        assert btb.lookup(pcs[1]) == 2
        assert btb.lookup(pcs[2]) == 3

    def test_lookup_refreshes_lru(self):
        btb = BranchTargetBuffer(num_entries=8, associativity=2)
        sets = btb.num_sets
        a, b, c = 0x1000, 0x1000 + 4 * sets, 0x1000 + 8 * sets
        btb.insert(a, 1)
        btb.insert(b, 2)
        btb.lookup(a)          # refresh a; b becomes the LRU victim
        btb.insert(c, 3)
        assert btb.lookup(a) == 1
        assert btb.lookup(b) is None
