"""The load/store queue's address index against a reference linear scan.

``LoadStoreQueue.forwarding_store`` reads a per-address index of the
queued stores instead of scanning the queue.  A seeded random sequence
of inserts, address updates (a store's address may be set twice, to a
new value) and releases drives the queue and a plain list model side
by side; every forwarding query and load-ordering check must
agree with a scan of that list.
"""

from __future__ import annotations

import random

import pytest

from repro.memsys.lsq import LoadStoreQueue

ADDRESSES = [0x100 + 8 * i for i in range(6)]


class ReferenceQueue:
    """The queue as a program-ordered list, queried by linear scans."""

    def __init__(self) -> None:
        self.entries = []
        self.forwarded_loads = 0

    def insert(self, seq, is_store):
        self.entries.append({"seq": seq, "store": is_store, "address": None})

    def set_address(self, seq, address):
        for entry in self.entries:
            if entry["seq"] == seq:
                entry["address"] = address

    def release(self, seq):
        self.entries = [e for e in self.entries if e["seq"] != seq]

    def forwarding_store(self, seq, address):
        best = None
        for entry in self.entries:
            if entry["seq"] >= seq:
                break
            if entry["store"] and entry["address"] == address:
                best = entry["seq"]
        if best is not None:
            self.forwarded_loads += 1
        return best

    def load_may_issue(self, seq):
        unresolved = [e["seq"] for e in self.entries if e["store"] and e["address"] is None]
        return not unresolved or unresolved[0] >= seq


@pytest.mark.parametrize("seed", range(20))
def test_index_matches_linear_scan(seed):
    rng = random.Random(seed)
    lsq = LoadStoreQueue(capacity=12)
    reference = ReferenceQueue()
    next_seq = 0
    for _ in range(400):
        queued = [e["seq"] for e in reference.entries]
        op = rng.random()
        if op < 0.3:
            if len(lsq) < lsq.capacity:
                next_seq += rng.randint(1, 3)
                is_store = rng.random() < 0.6
                lsq.insert(next_seq, is_store)
                reference.insert(next_seq, is_store)
        elif op < 0.55 and queued:
            # Includes second calls for the same store, with a new address
            # or the same one.
            seq = rng.choice(queued)
            address = rng.choice(ADDRESSES)
            lsq.set_address(seq, address)
            reference.set_address(seq, address)
        elif op < 0.7 and queued:
            seq = rng.choice(queued)
            lsq.release(seq)
            reference.release(seq)
        else:
            seq = rng.randint(max(0, next_seq - 12), next_seq + 2)
            address = rng.choice(ADDRESSES)
            expected = reference.forwarding_store(seq, address)
            assert lsq.forwarding_store(seq, address) == expected
            assert lsq.load_may_issue(seq) == reference.load_may_issue(seq)
        assert lsq.forwarded_loads == reference.forwarded_loads
        assert len(lsq) == len(reference.entries)
    assert reference.forwarded_loads > 0


def test_readdressed_store_forwards_only_from_its_new_address():
    lsq = LoadStoreQueue()
    lsq.insert(1, is_store=True)
    lsq.set_address(1, 0x100)
    lsq.set_address(1, 0x200)
    assert lsq.forwarding_store(5, 0x100) is None
    assert lsq.forwarding_store(5, 0x200) == 1
    lsq.release(1)
    assert lsq.forwarding_store(5, 0x200) is None
    assert lsq.forwarded_loads == 1
