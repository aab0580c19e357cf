"""The two-tier cache under the result and trace stores.

``repro.storage.TwoTierCache`` owns promotion into the memory tier, the
hit/miss/store counters and the disk-tier pass-throughs; ``ResultStore``
and ``TraceStore`` add only their codecs.  A disk record that does not
decode, for any reason, is a counted miss, is counted as ``rejected``
and is never promoted.
"""

import json

import pytest

from repro.experiments.store import SCHEMA_VERSION, ResultStore
from repro.pipeline.stats import SimulationStats
from repro.storage import TwoTierCache
from repro.trace import TraceStore


class _TextCache(TwoTierCache):
    # UTF-8 text; "reject" decodes to a rejection, "raise" to an error.
    def _encode(self, key, value, metadata):
        return value.encode("utf-8")

    def _decode(self, key, raw):
        text = raw.decode("utf-8")
        if text == "raise":
            raise ValueError(text)
        return None if text == "reject" else text


def _counts(memory_hits=0, disk_hits=0, misses=0, rejected=0, stores=0, entries=0):
    return {
        "memory_hits": memory_hits,
        "disk_hits": disk_hits,
        "misses": misses,
        "rejected": rejected,
        "stores": stores,
        "entries": entries,
    }


class TestTwoTierCache:
    def test_disk_hit_is_promoted_once(self, tmp_path):
        _TextCache(str(tmp_path)).put("k", "v")
        cache = _TextCache(str(tmp_path))
        assert cache.get("k") == "v"
        assert cache.get("k") == "v"
        assert cache.counters() == _counts(memory_hits=1, disk_hits=1, entries=1)

    def test_peek_promotes_without_counting(self, tmp_path):
        _TextCache(str(tmp_path)).put("k", "v")
        cache = _TextCache(str(tmp_path))
        assert cache.peek("k") == "v"
        assert cache.peek("absent") is None
        assert cache.counters() == _counts(entries=1)
        assert len(cache) == 1

    def test_put_writes_both_tiers(self, tmp_path):
        cache = _TextCache(str(tmp_path))
        cache.put("k", "v")
        assert cache.counters() == _counts(stores=1, entries=1)
        assert cache._disk.get("k") == b"v"

    @pytest.mark.parametrize("text", ["reject", "raise"])
    def test_undecodable_record_is_a_counted_miss(self, tmp_path, text):
        _TextCache(str(tmp_path)).put("k", text)
        cache = _TextCache(str(tmp_path))
        assert cache.get("k") is None
        # peek counts nothing, a rejection included.
        assert cache.peek("k") is None
        assert cache.counters() == _counts(misses=1, rejected=1)
        assert len(cache) == 0

    def test_memory_only_cache_has_no_disk_tier(self):
        cache = _TextCache()
        cache.set_observer(lambda op, seconds: None)
        cache.compact()
        assert cache.storage_stats() == {}
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.counters() == _counts(memory_hits=1, misses=1, stores=1, entries=1)

    def test_observer_and_stats_reach_the_disk_tier(self, tmp_path):
        seen = []
        cache = _TextCache(str(tmp_path))
        cache.set_observer(lambda op, seconds: seen.append(op))
        cache.put("k", "v")
        assert "append" in seen
        assert cache.storage_stats()["entries"] == 1


class TestStoresKeepTheirOwnEntryPoints:
    # perfbench's tracer wraps get and put by name, one wrapper per
    # function: each store must define its own.
    @pytest.mark.parametrize("name", ["get", "put"])
    def test_get_and_put_are_defined_per_class(self, name):
        assert name in vars(ResultStore)
        assert name in vars(TraceStore)
        assert getattr(ResultStore, name) is not getattr(TraceStore, name)


class TestMalformedResultRecords:
    @pytest.mark.parametrize(
        "stats",
        [[], "xyz", {"regfile_statistics": 5}],
        ids=["list", "string", "bad-field"],
    )
    def test_malformed_stats_is_a_miss(self, tmp_path, stats):
        record = {
            "schema": SCHEMA_VERSION,
            "key": "deadbeef",
            "metadata": {},
            "stats": stats,
        }
        ResultStore(str(tmp_path))._disk.put("deadbeef", json.dumps(record).encode("utf-8"))
        reader = ResultStore(str(tmp_path))
        assert reader.get("deadbeef") is None
        assert reader.counters() == _counts(misses=1, rejected=1)

    @pytest.mark.parametrize(
        "payload",
        [[1, 2], {"schema": SCHEMA_VERSION + 1, "stats": {}}, {"schema": SCHEMA_VERSION}],
        ids=["not-a-mapping", "other-schema", "no-stats"],
    )
    def test_malformed_record_is_a_miss(self, tmp_path, payload):
        ResultStore(str(tmp_path))._disk.put("deadbeef", json.dumps(payload).encode("utf-8"))
        assert ResultStore(str(tmp_path)).get("deadbeef") is None

    def test_well_formed_record_is_a_disk_hit(self, tmp_path):
        stats = SimulationStats(benchmark="x", cycles=10, committed_instructions=5)
        ResultStore(str(tmp_path)).put("deadbeef", stats, metadata={"benchmark": "x"})
        reader = ResultStore(str(tmp_path))
        assert reader.get("deadbeef") == stats
        assert reader.counters() == _counts(disk_hits=1, entries=1)


class TestRejectedDecodes:
    """A corrupt disk record in either store is a miss counted as rejected;
    an absent one is a plain miss."""

    CORRUPT = b"\x00 not a record"

    def test_corrupt_result_record_is_rejected(self, tmp_path):
        ResultStore(str(tmp_path))._disk.put("deadbeef", self.CORRUPT)
        reader = ResultStore(str(tmp_path))
        assert reader.get("deadbeef") is None
        assert reader.get("absent") is None
        assert reader.counters() == _counts(misses=2, rejected=1)

    def test_corrupt_trace_record_is_rejected(self, tmp_path):
        TraceStore(str(tmp_path))._disk.put("deadbeef", self.CORRUPT)
        reader = TraceStore(str(tmp_path))
        assert reader.get("deadbeef") is None
        assert reader.get("absent") is None
        assert reader.counters() == _counts(misses=2, rejected=1)
