"""Unit tests for the load/store queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.memsys.lsq import LoadStoreQueue


class TestLSQBasics:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            LoadStoreQueue(capacity=0)

    def test_insert_and_full(self):
        lsq = LoadStoreQueue(capacity=2)
        lsq.insert(0, is_store=False)
        lsq.insert(1, is_store=True)
        assert len(lsq) == lsq.capacity
        with pytest.raises(SimulationError):
            lsq.insert(2, is_store=False)

    def test_program_order_enforced(self):
        lsq = LoadStoreQueue()
        lsq.insert(5, is_store=False)
        with pytest.raises(SimulationError):
            lsq.insert(3, is_store=True)

    def test_release_and_occupancy(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.insert(1, is_store=False)
        assert len(lsq) == 2
        lsq.release(0)
        assert len(lsq) == 1
        lsq.release(12345)   # unknown seq is a no-op
        assert len(lsq) == 1


class TestOrderingRules:
    def test_load_blocked_by_unknown_store_address(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.insert(1, is_store=False)
        assert not lsq.load_may_issue(1)
        lsq.set_address(0, 0x100)
        assert lsq.load_may_issue(1)

    def test_load_not_blocked_by_younger_store(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=False)
        lsq.insert(1, is_store=True)
        assert lsq.load_may_issue(0)

    def test_set_address_unknown_entry(self):
        lsq = LoadStoreQueue()
        with pytest.raises(SimulationError):
            lsq.set_address(7, 0x100)


class TestForwarding:
    def test_forwarding_from_matching_store(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.set_address(0, 0x200)
        lsq.insert(1, is_store=False)
        assert lsq.forwarding_store(1, 0x200) == 0
        assert lsq.forwarded_loads == 1

    def test_no_forwarding_from_different_address(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.set_address(0, 0x200)
        lsq.insert(1, is_store=False)
        assert lsq.forwarding_store(1, 0x300) is None

    def test_youngest_older_store_wins(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.set_address(0, 0x200)
        lsq.insert(1, is_store=True)
        lsq.set_address(1, 0x200)
        lsq.insert(2, is_store=False)
        assert lsq.forwarding_store(2, 0x200) == 1

    def test_no_forwarding_from_younger_store(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=False)
        lsq.insert(1, is_store=True)
        lsq.set_address(1, 0x200)
        assert lsq.forwarding_store(0, 0x200) is None


class _LinearScanLSQ:
    """Reference model: the ordering rules as a scan of the whole queue."""

    def __init__(self):
        self.entries = {}  # seq -> [is_store, address_known], program order

    def insert(self, seq, is_store):
        self.entries[seq] = [is_store, False]

    def set_address(self, seq):
        self.entries[seq][1] = True

    def load_may_issue(self, seq):
        for other_seq, (is_store, address_known) in self.entries.items():
            if other_seq >= seq:
                break
            if is_store and not address_known:
                return False
        return True

    def release(self, seq):
        self.entries.pop(seq, None)


_OPS = ("insert", "set_address", "release", "query")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ordering_check_matches_a_linear_scan(data):
    """Random op sequences, including stores that never get an address."""
    lsq = LoadStoreQueue(capacity=16)
    reference = _LinearScanLSQ()
    next_seq = 0
    for _ in range(data.draw(st.integers(0, 60), label="length")):
        op = data.draw(st.sampled_from(_OPS), label="op")
        live = list(reference.entries)
        if op == "insert":
            if len(lsq) >= lsq.capacity:
                continue
            is_store = data.draw(st.booleans(), label="is_store")
            lsq.insert(next_seq, is_store)
            reference.insert(next_seq, is_store)
            next_seq += data.draw(st.integers(1, 3), label="gap")
        elif op == "set_address":
            if not live:
                continue
            seq = data.draw(st.sampled_from(live), label="seq")
            lsq.set_address(seq, data.draw(st.integers(0, 255), label="address"))
            reference.set_address(seq)
        elif op == "release":
            seq = data.draw(st.integers(-1, next_seq + 1), label="seq")
            lsq.release(seq)
            reference.release(seq)
        else:
            seq = data.draw(st.integers(-1, next_seq + 1), label="seq")
            assert lsq.load_may_issue(seq) == reference.load_may_issue(seq)
        assert len(lsq) == len(reference.entries)
