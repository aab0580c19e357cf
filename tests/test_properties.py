"""Property-based tests (hypothesis) for the core data structures."""

import os
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.analysis.distributions import cumulative_distribution
from repro.analysis.metrics import harmonic_mean
from repro.hwmodel.access_time import access_time_ns
from repro.hwmodel.area import RegisterFileGeometry
from repro.hwmodel.pareto import DesignPoint, pareto_frontier
from repro.memsys.cache import CacheConfig, CacheModel
from repro.regfile.ports import WriteScheduler
from repro.regfile.replacement import PseudoLRU
from repro.rename.free_list import FreeList
from repro.storage.sharded import ShardedStore


# ----------------------------------------------------------------------
# free list
# ----------------------------------------------------------------------

@given(st.lists(st.booleans(), max_size=200))
@settings(max_examples=50, deadline=None)
def test_free_list_never_duplicates_allocations(operations):
    """Alternating allocate/release never hands out the same register twice."""
    free = FreeList(range(8))
    allocated = []
    for do_allocate in operations:
        if do_allocate and not free.empty:
            register = free.allocate()
            assert register not in allocated
            allocated.append(register)
        elif allocated:
            free.release(allocated.pop())
    assert len(allocated) + len(free) == 8


# ----------------------------------------------------------------------
# pseudo-LRU
# ----------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300),
       st.sampled_from([2, 4, 8, 16]))
@settings(max_examples=50, deadline=None)
def test_pseudo_lru_never_exceeds_capacity(keys, capacity):
    lru = PseudoLRU(capacity)
    resident = set()
    for key in keys:
        evicted = lru.insert(key)
        resident.add(key)
        if evicted is not None:
            assert evicted in resident
            resident.discard(evicted)
        assert len(lru) == len(resident) <= capacity
        assert set(lru.keys()) == resident


@given(st.sampled_from([2, 4, 8, 16]))
@settings(max_examples=20, deadline=None)
def test_pseudo_lru_recently_touched_survives(capacity):
    """The most recently touched entry is never the next victim."""
    lru = PseudoLRU(capacity)
    for key in range(capacity):
        lru.insert(key)
    lru.touch(0)
    evicted = lru.insert(capacity)
    assert evicted != 0


# ----------------------------------------------------------------------
# write scheduler
# ----------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_write_scheduler_never_exceeds_ports_per_cycle(requests, ports):
    scheduler = WriteScheduler(ports)
    scheduled = Counter()
    for requested in requests:
        actual = scheduler.schedule(requested)
        assert actual >= requested
        scheduled[actual] += 1
    assert max(scheduled.values()) <= ports


# ----------------------------------------------------------------------
# cache model
# ----------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_cache_immediate_reaccess_always_hits(addresses):
    cache = CacheModel(CacheConfig(size_bytes=4096, associativity=2, line_bytes=64))
    for address in addresses:
        cache.access(address)
        assert cache.access(address).hit


@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_cache_hits_plus_misses_equals_accesses(addresses):
    cache = CacheModel(CacheConfig())
    for address in addresses:
        cache.access(address)
    assert cache.hits + cache.misses == len(addresses)


# ----------------------------------------------------------------------
# analytical models
# ----------------------------------------------------------------------

@given(st.integers(min_value=8, max_value=512),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_hw_models_are_positive_and_monotonic_in_ports(registers, reads, writes):
    area = RegisterFileGeometry(registers, reads, writes).area_lambda2()
    bigger = RegisterFileGeometry(registers, reads + 1, writes).area_lambda2()
    assert 0 < area < bigger
    assert access_time_ns(registers, reads, writes) > 0
    assert access_time_ns(registers, reads + 4, writes) > access_time_ns(
        registers, reads, writes)


# ----------------------------------------------------------------------
# pareto frontier
# ----------------------------------------------------------------------

def _dominated(point, others):
    """Strict Pareto dominance: someone is no worse and strictly better."""
    return any(
        (other.cost <= point.cost and other.value > point.value)
        or (other.cost < point.cost and other.value >= point.value)
        for other in others
    )


@given(st.lists(st.tuples(st.floats(min_value=1, max_value=1000),
                          st.floats(min_value=0.01, max_value=10)),
                min_size=1, max_size=80))
@settings(max_examples=50, deadline=None)
def test_pareto_frontier_is_sound(points_data):
    points = [DesignPoint(cost=c, value=v) for c, v in points_data]
    frontier = pareto_frontier(points)
    assert frontier, "frontier of a non-empty set is non-empty"
    # No frontier point is dominated by any original point.
    for point in frontier:
        assert not _dominated(point, points)
    # The frontier is sorted by cost; value only repeats on an exact
    # (cost, value) tie — never with a cost increase (that point would
    # be dominated).
    costs = [p.cost for p in frontier]
    values = [p.value for p in frontier]
    assert costs == sorted(costs)
    for left, right in zip(frontier, frontier[1:]):
        assert right.value > left.value or (
            right.value == left.value and right.cost == left.cost
        )


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=4),
                          st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_pareto_frontier_is_exactly_the_nondominated_multiset(points_data):
    """Completeness + soundness on a tiny grid (ties and duplicates are
    the common case here, not the corner case): the frontier is exactly
    the multiset of non-dominated input points, so exact (cost, value)
    ties and duplicates are all kept and everything strictly dominated
    is dropped."""
    points = [DesignPoint(cost=c, value=v) for c, v in points_data]
    frontier = pareto_frontier(points)
    expected = [point for point in points if not _dominated(point, points)]
    key = lambda p: (p.cost, p.value)  # noqa: E731
    assert sorted(map(key, frontier)) == sorted(map(key, expected))


@given(st.lists(st.tuples(st.floats(min_value=1, max_value=100),
                          st.floats(min_value=0.01, max_value=10)),
                min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_pareto_frontier_duplicating_every_point_duplicates_the_frontier(points_data):
    points = [DesignPoint(cost=c, value=v) for c, v in points_data]
    once = pareto_frontier(points)
    twice = pareto_frontier(points + points)
    key = lambda p: (p.cost, p.value)  # noqa: E731
    assert sorted(map(key, twice)) == sorted(map(key, once + once))


# ----------------------------------------------------------------------
# metrics / distributions
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_harmonic_mean_bounded_by_min_and_max(values):
    mean = harmonic_mean(values)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


@given(st.dictionaries(st.integers(min_value=0, max_value=64),
                       st.integers(min_value=1, max_value=50), max_size=20),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_cumulative_distribution_is_monotone_and_ends_at_100(counts, max_value):
    cdf = cumulative_distribution(Counter(counts), max_value)
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1] == 100.0 or not counts


# ----------------------------------------------------------------------
# sharded segment-log store vs a dict model
# ----------------------------------------------------------------------

_STORE_TTL = 100.0
_STORE_BUDGET = 160  # payload-byte budget (num_shards=1 => per-shard too)

_KEYS = st.sampled_from([f"{i:02x}beef" for i in range(6)])
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, st.binary(min_size=0, max_size=48)),
    st.tuples(st.just("get"), _KEYS, st.just(b"")),
    st.tuples(st.just("delete"), _KEYS, st.just(b"")),
    st.tuples(st.just("advance"),
              st.floats(min_value=0.5, max_value=60.0), st.just(b"")),
    st.tuples(st.just("compact"), st.just(0), st.just(b"")),
)


class _StoreModel:
    """Reference semantics: insertion-ordered dict + TTL + size budget.

    Mirrors the store's visible behaviour exactly: entries expire after
    the TTL (reads miss immediately), and whenever the total payload
    exceeds the budget a compaction drops expired entries first, then
    evicts the oldest (by timestamp, then write order) until it fits.
    """

    def __init__(self):
        self.entries = {}  # key -> (ts, value), insertion ordered

    def _payload(self):
        return sum(len(value) for _, value in self.entries.values())

    def compact(self, now):
        self.entries = {
            key: (ts, value) for key, (ts, value) in self.entries.items()
            if now - ts <= _STORE_TTL
        }
        while self._payload() > _STORE_BUDGET:
            oldest = min(self.entries,
                         key=lambda k: (self.entries[k][0],
                                        list(self.entries).index(k)))
            del self.entries[oldest]

    def put(self, key, value, now):
        self.entries.pop(key, None)
        self.entries[key] = (now, value)
        if self._payload() > _STORE_BUDGET:
            self.compact(now)

    def get(self, key, now):
        entry = self.entries.get(key)
        if entry is None or now - entry[0] > _STORE_TTL:
            return None
        return entry[1]

    def delete(self, key):
        return self.entries.pop(key, None) is not None

    def live_keys(self, now):
        return {key for key, (ts, _) in self.entries.items()
                if now - ts <= _STORE_TTL}


@given(st.lists(_OPS, max_size=60))
@settings(max_examples=40, deadline=None)
def test_sharded_store_agrees_with_dict_model(tmp_path_factory, operations):
    """put/get/delete/compact under TTL + size bound == the dict model."""
    root = str(tmp_path_factory.mktemp("store"))
    clock = [1000.0]
    store = ShardedStore(root, num_shards=1, ttl_seconds=_STORE_TTL,
                         max_bytes=_STORE_BUDGET, clock=lambda: clock[0])
    model = _StoreModel()
    for op, a, b in operations:
        now = clock[0]
        if op == "put":
            store.put(a, b)
            model.put(a, b, now)
        elif op == "get":
            assert store.get(a) == model.get(a, now), a
        elif op == "delete":
            assert store.delete(a) == model.delete(a), a
        elif op == "advance":
            clock[0] += a
        elif op == "compact":
            store.compact()
            model.compact(now)
    now = clock[0]
    assert set(store.keys()) == model.live_keys(now)
    for key in model.live_keys(now):
        assert store.get(key) == model.get(key, now)

    # A fresh process over the same tree — with a torn tail injected at
    # the end of every segment — rebuilds exactly the same state.
    for shard_name in os.listdir(root):
        shard_dir = os.path.join(root, shard_name)
        if not os.path.isdir(shard_dir):
            continue
        for name in os.listdir(shard_dir):
            if name.startswith("seg-") and name.endswith(".log"):
                with open(os.path.join(shard_dir, name), "ab") as handle:
                    handle.write(b"\xff\xff\xff")  # short header: torn
    reopened = ShardedStore(root, num_shards=1, ttl_seconds=_STORE_TTL,
                            max_bytes=_STORE_BUDGET, clock=lambda: clock[0])
    assert set(reopened.keys()) == model.live_keys(now)
    for key in model.live_keys(now):
        assert reopened.get(key) == model.get(key, now)
