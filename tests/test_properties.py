"""Property-based tests (hypothesis) for the core data structures."""

from collections import Counter, deque

from hypothesis import given, settings, strategies as st

from repro.analysis.distributions import cumulative_distribution
from repro.analysis.metrics import harmonic_mean
from repro.execute.issue_queue import IssueQueueEntry
from repro.hwmodel.access_time import access_time_ns
from repro.hwmodel.area import RegisterFileGeometry
from repro.hwmodel.pareto import DesignPoint, pareto_frontier
from repro.isa.instruction import INT_LOGICAL_REGISTERS, DynamicInstruction
from repro.isa.opcodes import OpClass
from repro.memsys.cache import CacheConfig, CacheModel
from repro.regfile.ports import WriteScheduler
from repro.regfile.replacement import PseudoLRU
from repro.rename.renamer import Renamer
from repro.storage import Table, open_database


# ----------------------------------------------------------------------
# free list
# ----------------------------------------------------------------------

@given(st.lists(st.booleans(), max_size=200))
@settings(max_examples=50, deadline=None)
def test_free_list_never_duplicates_allocations(operations):
    """Renaming interleaved with commit-order releases never hands out a
    register that is still mapped or in flight."""
    renamer = Renamer(40, 40)   # 8 spare integer registers
    free = renamer.int_free
    live = set(range(32))       # the architected mappings
    in_flight = deque()
    for seq, do_allocate in enumerate(operations):
        if do_allocate and free.free:
            instruction = DynamicInstruction(seq=seq, op_class=OpClass.INT_ALU,
                                             dest=INT_LOGICAL_REGISTERS[seq % 32])
            record = renamer.rename(IssueQueueEntry(instruction))
            assert record.dest.index not in live
            live.add(record.dest.index)
            in_flight.append(record)
        elif in_flight:
            released = in_flight.popleft().previous_dest.index
            free.release(released)
            live.remove(released)
    assert len(live) + len(free.free) == 40
    assert set(free.free) == free.members


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
# a size-bounded store table vs a dict model
# ----------------------------------------------------------------------

_STORE_BUDGET = 160  # value-byte bound of the table

_KEYS = st.sampled_from([f"{i:02x}beef" for i in range(6)])
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, st.binary(min_size=0, max_size=48)),
    st.tuples(st.just("get"), _KEYS, st.just(b"")),
)


@given(st.lists(_OPS, max_size=60))
@settings(max_examples=40, deadline=None)
def test_bounded_table_agrees_with_dict_model(tmp_path_factory, operations):
    """put/get under a size bound == an insertion-ordered dict that drops
    its oldest-written entries until the values fit the bound."""
    cache_dir = str(tmp_path_factory.mktemp("store"))
    table = Table(open_database(cache_dir), "results", max_bytes=_STORE_BUDGET)
    model = {}
    for op, key, value in operations:
        if op == "put":
            table.put(key, value)
            model.pop(key, None)
            model[key] = value
            while sum(len(held) for held in model.values()) > _STORE_BUDGET:
                del model[next(iter(model))]
        else:
            assert table.get(key) == model.get(key), key
    rows = table.database.query("SELECT key, value FROM results ORDER BY rowid")
    assert rows == list(model.items())
    assert table.stats()["entries"] == len(model)
