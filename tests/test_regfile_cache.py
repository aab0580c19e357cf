"""Unit tests for the register file cache (the paper's contribution)."""

import pytest

from repro.errors import ConfigurationError
from repro.execute.issue_queue import IssueQueue, IssueQueueEntry
from repro.execute.scoreboard import ValueState
from repro.isa.instruction import DynamicInstruction, INT_LOGICAL_REGISTERS, RegisterClass
from repro.isa.opcodes import OpClass
from repro.pipeline.processor import Processor
from repro.regfile.base import OperandSource
from repro.regfile.cache import RegisterFileCache
from repro.rename.renamer import PhysicalRegister


def _plan(regfile, state, issue_cycle):
    """Plan one operand read on ``state`` (the plan is written onto the
    value state itself) and return the state."""
    regfile.plan_operand_read(state, issue_cycle)
    return state


def _phys(index):
    return PhysicalRegister(RegisterClass.INT, index)


def _window():
    """A window and its value states (``uid`` -> ``ValueState``)."""
    window = IssueQueue(32)
    return window, window.values


def _entry(instruction, dest, sources):
    """An in-flight record renamed to ``dest`` and ``sources``, as the
    renamer leaves it."""
    entry = IssueQueueEntry(instruction)
    entry.dest = dest
    entry.sources = sources
    return entry


def _wait_in_window(window, entry):
    """Put ``entry`` in the window the way the dispatch stage does for the
    policies: as a window entry and a consumer of each of its sources,
    whose value states are its operand accesses, also split by register
    file."""
    window.entries[entry.seq] = entry
    entry.accesses = [window.values[register.uid] for register in entry.sources]
    entry.int_accesses = [state for state in entry.accesses
                          if state.register.reg_class is RegisterClass.INT]
    entry.fp_accesses = [state for state in entry.accesses
                         if state.register.reg_class is not RegisterClass.INT]
    for register in entry.sources:
        window.consumers.setdefault(register.uid, []).append(entry)
    return entry


def _allocate(values, register, producer_seq):
    """A fresh value state for ``register``, as the dispatch stage makes."""
    state = values[register.uid] = ValueState(register, producer_seq)
    return state


def _produced_state(values, index, ex_end, rf_ready):
    register = _phys(index)
    state = _allocate(values, register, producer_seq=index)
    state.ex_end_cycle = ex_end
    state.rf_ready_cycle = rf_ready
    state.written_back = True
    return register, state


class TestConstruction:
    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            RegisterFileCache(upper_capacity=12)

    def test_defaults_match_paper(self):
        cache = RegisterFileCache()
        assert cache.upper_capacity == 16
        assert cache.read_stages == 1 and cache.consumer_offset == 1
        assert cache.caching == "non-bypass"
        assert cache.fetch == "fetch-on-demand"

    def test_describe_mentions_policies(self):
        cache = RegisterFileCache(caching="ready", fetch="prefetch-first-pair")
        assert "ready" in cache.describe()
        assert "prefetch-first-pair" in cache.describe()


class TestReadPlanning:
    def test_bypass_exactly_one_cycle_after_produce(self):
        cache = RegisterFileCache()
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=9, rf_ready=10)
        access = _plan(cache, state, issue_cycle=9)
        assert access.source is OperandSource.BYPASS

    def test_miss_when_not_cached(self):
        cache = RegisterFileCache()
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        access = _plan(cache, state, issue_cycle=10)
        assert access.source is OperandSource.MISS

    def test_hit_after_caching_at_writeback(self):
        cache = RegisterFileCache(caching="always")
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        access = _plan(cache, state, issue_cycle=10)
        assert access.source is OperandSource.FILE

    def test_not_ready_while_value_in_flight_to_lower(self):
        cache = RegisterFileCache()
        window, values = _window()
        register = _phys(40)
        state = _allocate(values, register, 0)
        state.ex_end_cycle = 5          # produced but not yet written back
        access = _plan(cache, state, issue_cycle=10)
        assert access.source is OperandSource.NOT_READY

    def test_not_ready_while_fill_in_flight(self):
        cache = RegisterFileCache(lower_read_latency=2)
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        completion = cache.request_fill(register, state, cycle=10)
        assert completion == 13          # lower read (2) + upper write (1)
        access = _plan(cache, state, issue_cycle=11)
        assert access.source is OperandSource.NOT_READY
        assert access.retry_cycle == completion


class TestFills:
    def test_fill_completion_inserts_into_upper(self):
        cache = RegisterFileCache()
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        completion = cache.request_fill(register, state, cycle=10)
        assert completion == 12
        assert not cache.present_in_upper(register)
        cache.begin_cycle(completion)
        assert cache.present_in_upper(register)
        assert cache.demand_fills == 1

    def test_fill_denied_when_all_buses_busy(self):
        cache = RegisterFileCache(num_buses=1)
        window, values = _window()
        first, state1 = _produced_state(values, 40, ex_end=5, rf_ready=6)
        second, state2 = _produced_state(values, 41, ex_end=5, rf_ready=6)
        assert cache.request_fill(first, state1, cycle=10) is not None
        assert cache.request_fill(second, state2, cycle=10) is None
        assert cache.buses.transfers_denied == 1

    def test_fill_for_resident_register_is_trivial(self):
        cache = RegisterFileCache(caching="always")
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        assert cache.request_fill(register, state, cycle=10) == 10

    def test_duplicate_fill_requests_share_the_transfer(self):
        cache = RegisterFileCache()
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        first = cache.request_fill(register, state, cycle=10)
        second = cache.request_fill(register, state, cycle=11)
        assert first == second
        assert cache.buses.transfers_started == 1

    def test_fill_rejected_before_value_reaches_lower_level(self):
        cache = RegisterFileCache()
        window, values = _window()
        register = _phys(40)
        state = _allocate(values, register, 0)
        state.ex_end_cycle = 9
        assert cache.request_fill(register, state, cycle=10) is None


class TestWritebackPolicies:
    def test_non_bypass_caching_skips_bypassed_values(self):
        cache = RegisterFileCache(caching="non-bypass")
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        state.consumed_via_bypass = True
        cache.writeback(register, state, cycle=6, window=window)
        assert not cache.present_in_upper(register)
        assert cache.results_not_cached == 1

    def test_non_bypass_caching_keeps_unbypassed_values(self):
        cache = RegisterFileCache(caching="non-bypass")
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        assert cache.present_in_upper(register)
        assert cache.results_cached == 1

    def test_never_caching(self):
        cache = RegisterFileCache(caching="never")
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        assert not cache.present_in_upper(register)

    def test_upper_write_port_conflict_skips_caching(self):
        cache = RegisterFileCache(caching="always", upper_write_ports=1)
        window, values = _window()
        a, state_a = _produced_state(values, 40, ex_end=5, rf_ready=6)
        b, state_b = _produced_state(values, 41, ex_end=5, rf_ready=6)
        cache.writeback(a, state_a, cycle=6, window=window)
        cache.writeback(b, state_b, cycle=6, window=window)
        assert cache.present_in_upper(a)
        assert not cache.present_in_upper(b)
        assert cache.cache_write_conflicts == 1

    def test_lower_write_port_contention_delays_availability(self):
        cache = RegisterFileCache(lower_write_ports=1, caching="never")
        window, values = _window()
        a, state_a = _produced_state(values, 40, ex_end=5, rf_ready=6)
        b, state_b = _produced_state(values, 41, ex_end=5, rf_ready=6)
        assert cache.writeback(a, state_a, cycle=6, window=window) == 6
        assert cache.writeback(b, state_b, cycle=6, window=window) == 7

    def test_ready_caching_requires_ready_waiting_consumer(self):
        cache = RegisterFileCache(caching="ready")
        window, values = _window()
        producer_reg, producer_state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        other_ready, _ = _produced_state(values, 41, ex_end=-1, rf_ready=0)  # architected
        consumer = _entry(
            DynamicInstruction(seq=9, op_class=OpClass.INT_ALU,
                               dest=INT_LOGICAL_REGISTERS[3],
                               sources=(INT_LOGICAL_REGISTERS[1],
                                        INT_LOGICAL_REGISTERS[2])),
            dest=_phys(50), sources=(producer_reg, other_ready),
        )
        _wait_in_window(window, consumer)
        cache.writeback(producer_reg, producer_state, cycle=6, window=window)
        assert cache.present_in_upper(producer_reg)

    def test_ready_caching_skips_when_other_operand_missing(self):
        cache = RegisterFileCache(caching="ready")
        window, values = _window()
        producer_reg, producer_state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        pending = _phys(42)
        _allocate(values, pending, producer_seq=8)   # not produced yet
        consumer = _entry(
            DynamicInstruction(seq=9, op_class=OpClass.INT_ALU,
                               dest=INT_LOGICAL_REGISTERS[3],
                               sources=(INT_LOGICAL_REGISTERS[1],
                                        INT_LOGICAL_REGISTERS[2])),
            dest=_phys(50), sources=(producer_reg, pending),
        )
        _wait_in_window(window, consumer)
        cache.writeback(producer_reg, producer_state, cycle=6, window=window)
        assert not cache.present_in_upper(producer_reg)


class TestEvictionAndRelease:
    def test_eviction_when_upper_is_full(self):
        cache = RegisterFileCache(upper_capacity=4, caching="always")
        window, values = _window()
        registers = []
        for index in range(5):
            register, state = _produced_state(values, 40 + index, ex_end=5, rf_ready=6)
            cache.writeback(register, state, cycle=6 + index, window=window)
            registers.append(register)
        assert cache.evictions == 1
        resident = sum(cache.present_in_upper(r) for r in registers)
        assert resident == 4

    def test_release_removes_from_upper_and_pending(self):
        cache = RegisterFileCache(caching="always")
        window, values = _window()
        register, state = _produced_state(values, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        cache.release(register)
        assert not cache.present_in_upper(register)

    def test_read_ports_enforced(self):
        cache = RegisterFileCache(upper_read_ports=1, caching="always")
        window, values = _window()
        a, state_a = _produced_state(values, 40, ex_end=5, rf_ready=6)
        b, state_b = _produced_state(values, 41, ex_end=5, rf_ready=6)
        cache.writeback(a, state_a, cycle=6, window=window)
        cache.writeback(b, state_b, cycle=6, window=window)
        cache.begin_cycle(10)
        access_a = _plan(cache, state_a, issue_cycle=10)
        access_b = _plan(cache, state_b, issue_cycle=10)
        assert cache.can_claim_reads([access_a])
        cache.claim_reads([access_a])
        # The single upper-level read port is used for this cycle.
        assert not cache.can_claim_reads([access_b])
        cache.begin_cycle(11)
        assert cache.can_claim_reads([access_b])


class TestPrefetchFirstPair:
    def test_prefetches_other_operand_of_first_consumer(self):
        cache = RegisterFileCache(fetch="prefetch-first-pair", caching="non-bypass")
        window, values = _window()
        # The issuing producer writes dest; its first consumer also needs
        # `other`, which sits only in the lower level.
        dest = _phys(50)
        _allocate(values, dest, producer_seq=5)
        other, other_state = _produced_state(values, 60, ex_end=1, rf_ready=2)
        producer = _entry(
            DynamicInstruction(seq=5, op_class=OpClass.INT_ALU,
                               dest=INT_LOGICAL_REGISTERS[4]),
            dest=dest, sources=(),
        )
        consumer = _entry(
            DynamicInstruction(seq=6, op_class=OpClass.INT_ALU,
                               dest=INT_LOGICAL_REGISTERS[5],
                               sources=(INT_LOGICAL_REGISTERS[4],
                                        INT_LOGICAL_REGISTERS[6])),
            dest=_phys(51), sources=(dest, other),
        )
        _wait_in_window(window, producer)
        _wait_in_window(window, consumer)
        # Issuing the producer wakes its waiter list: the consumer.
        cache.on_issue(dest, [consumer], cycle=3)
        assert cache.prefetch_fills == 1
        assert cache.fill_in_flight(other) is not None

    def test_no_prefetch_when_operand_already_resident(self):
        cache = RegisterFileCache(fetch="prefetch-first-pair", caching="always")
        window, values = _window()
        dest = _phys(50)
        _allocate(values, dest, producer_seq=5)
        other, other_state = _produced_state(values, 60, ex_end=1, rf_ready=2)
        cache.writeback(other, other_state, cycle=2, window=window)
        producer = _entry(
            DynamicInstruction(seq=5, op_class=OpClass.INT_ALU,
                               dest=INT_LOGICAL_REGISTERS[4]),
            dest=dest, sources=(),
        )
        consumer = _entry(
            DynamicInstruction(seq=6, op_class=OpClass.INT_ALU,
                               dest=INT_LOGICAL_REGISTERS[5],
                               sources=(INT_LOGICAL_REGISTERS[4],
                                        INT_LOGICAL_REGISTERS[6])),
            dest=_phys(51), sources=(dest, other),
        )
        _wait_in_window(window, producer)
        _wait_in_window(window, consumer)
        # Issuing the producer wakes its waiter list: the consumer.
        cache.on_issue(dest, [consumer], cycle=3)
        assert cache.prefetch_fills == 0

    def test_fetch_on_demand_never_prefetches(self):
        cache = RegisterFileCache(fetch="fetch-on-demand")
        window, values = _window()
        dest = _phys(50)
        _allocate(values, dest, producer_seq=5)
        other, _ = _produced_state(values, 60, ex_end=1, rf_ready=2)
        producer = _entry(
            DynamicInstruction(seq=5, op_class=OpClass.INT_ALU,
                               dest=INT_LOGICAL_REGISTERS[4]),
            dest=dest, sources=(),
        )
        consumer = _entry(
            DynamicInstruction(seq=6, op_class=OpClass.INT_ALU,
                               dest=INT_LOGICAL_REGISTERS[5],
                               sources=(INT_LOGICAL_REGISTERS[4],
                                        INT_LOGICAL_REGISTERS[6])),
            dest=_phys(51), sources=(dest, other),
        )
        _wait_in_window(window, producer)
        _wait_in_window(window, consumer)
        cache.on_issue(dest, [consumer], cycle=3)
        assert cache.prefetch_fills == 0


#: Every statistic a register file cache reports, whatever its policies.
STATISTICS_KEYS = [
    "reads_from_bypass", "reads_from_upper", "upper_misses", "demand_fills",
    "prefetch_fills", "results_cached", "results_not_cached",
    "cache_write_conflicts", "read_port_stalls", "evictions",
    "bus_transfers", "bus_denied",
]


@pytest.mark.parametrize("caching, fetch, describe, consumer_index", [
    ("non-bypass", "fetch-on-demand",
     "register file cache (non-bypass caching + fetch-on-demand) "
     "(infR/infW upper, inf buses)", False),
    ("non-bypass", "prefetch-first-pair",
     "register file cache (non-bypass caching + prefetch-first-pair) "
     "(infR/infW upper, inf buses)", False),
    ("ready", "fetch-on-demand",
     "register file cache (ready caching + fetch-on-demand) "
     "(infR/infW upper, inf buses)", True),
    ("ready", "prefetch-first-pair",
     "register file cache (ready caching + prefetch-first-pair) "
     "(infR/infW upper, inf buses)", True),
    ("always", "fetch-on-demand",
     "register file cache (always caching + fetch-on-demand) "
     "(infR/infW upper, inf buses)", False),
    ("always", "prefetch-first-pair",
     "register file cache (always caching + prefetch-first-pair) "
     "(infR/infW upper, inf buses)", False),
    ("never", "fetch-on-demand",
     "register file cache (never caching + fetch-on-demand) "
     "(infR/infW upper, inf buses)", False),
    ("never", "prefetch-first-pair",
     "register file cache (never caching + prefetch-first-pair) "
     "(infR/infW upper, inf buses)", False),
])
def test_policy_pair_by_name(caching, fetch, describe, consumer_index):
    cache = RegisterFileCache(caching=caching, fetch=fetch)
    assert cache.describe() == describe
    assert list(cache.statistics()) == STATISTICS_KEYS
    with pytest.raises(ConfigurationError, match="unknown caching policy 'magic'"):
        RegisterFileCache(caching="magic", fetch=fetch)
    with pytest.raises(ConfigurationError, match="unknown fetch policy 'oracle'"):
        RegisterFileCache(caching=caching, fetch="oracle")
    # Only ready caching walks the consumer lists (prefetch-first-pair
    # reads the waiters its producer wakes), so only it keeps the window
    # maintaining them.
    processor = Processor(iter(()), lambda: RegisterFileCache(caching=caching, fetch=fetch))
    assert processor.window.track_consumers is consumer_index


@pytest.mark.parametrize("fetch", ["fetch-on-demand", "prefetch-first-pair"])
def test_processor_calls_on_issue_only_to_prefetch(monkeypatch, fetch):
    """The issue hook is resolved per instance: a fetch-on-demand cache
    never sees an ``on_issue`` call, a prefetching one sees many."""
    from repro.pipeline.config import ProcessorConfig
    from repro.pipeline.processor import simulate
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import SyntheticWorkload

    calls = []
    original = RegisterFileCache.on_issue

    def counting(self, dest, consumers, cycle):
        calls.append(cycle)
        return original(self, dest, consumers, cycle)

    monkeypatch.setattr(RegisterFileCache, "on_issue", counting)
    stream = SyntheticWorkload(get_profile("gcc")).instructions(1000)
    simulate(stream, lambda: RegisterFileCache(fetch=fetch),
             ProcessorConfig(max_instructions=1000))
    prefetches = fetch == "prefetch-first-pair"
    assert RegisterFileCache(fetch=fetch).prefetches_on_issue is prefetches
    assert bool(calls) is prefetches
