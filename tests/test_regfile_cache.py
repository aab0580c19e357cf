"""Unit tests for the register file cache (the paper's contribution)."""

import pytest

from repro.errors import ConfigurationError
from repro.execute.bypass import BypassNetwork
from repro.execute.issue_queue import IssueQueue, IssueQueueEntry
from repro.execute.scoreboard import ValueScoreboard
from repro.isa.instruction import DynamicInstruction, INT_LOGICAL_REGISTERS, RegisterClass
from repro.isa.opcodes import OpClass
from repro.regfile.base import OperandAccess, OperandSource
from repro.regfile.cache import RegisterFileCache
from repro.regfile.policies import AlwaysCaching, NeverCaching, NonBypassCaching, ReadyCaching
from repro.regfile.prefetch import FetchOnDemand, PrefetchFirstPair
from repro.rename.renamer import PhysicalRegister


def _plan(regfile, register, state, issue_cycle):
    """Plan one operand read into a fresh access and return it."""
    access = OperandAccess(register, state)
    regfile.plan_operand_read(access, issue_cycle)
    return access


def _phys(index):
    return PhysicalRegister(RegisterClass.INT, index)


def _window():
    scoreboard = ValueScoreboard()
    return IssueQueue(32, scoreboard, BypassNetwork(1, 1)), scoreboard


def _produced_state(scoreboard, index, ex_end, rf_ready):
    register = _phys(index)
    state = scoreboard.allocate(register, producer_seq=index)
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
        assert cache.read_stages == 1 and cache.bypass_levels == 1
        assert isinstance(cache.caching_policy, NonBypassCaching)
        assert isinstance(cache.fetch_policy, FetchOnDemand)

    def test_describe_mentions_policies(self):
        cache = RegisterFileCache(caching_policy=ReadyCaching(),
                                  fetch_policy=PrefetchFirstPair())
        assert "ready" in cache.describe()
        assert "prefetch-first-pair" in cache.describe()


class TestReadPlanning:
    def test_bypass_exactly_one_cycle_after_produce(self):
        cache = RegisterFileCache()
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=9, rf_ready=10)
        access = _plan(cache, register, state, issue_cycle=9)
        assert access.source is OperandSource.BYPASS

    def test_miss_when_not_cached(self):
        cache = RegisterFileCache()
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        access = _plan(cache, register, state, issue_cycle=10)
        assert access.source is OperandSource.MISS

    def test_hit_after_caching_at_writeback(self):
        cache = RegisterFileCache(caching_policy=AlwaysCaching())
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        access = _plan(cache, register, state, issue_cycle=10)
        assert access.source is OperandSource.FILE

    def test_not_ready_while_value_in_flight_to_lower(self):
        cache = RegisterFileCache()
        window, scoreboard = _window()
        register = _phys(40)
        state = scoreboard.allocate(register, 0)
        state.ex_end_cycle = 5          # produced but not yet written back
        access = _plan(cache, register, state, issue_cycle=10)
        assert access.source is OperandSource.NOT_READY

    def test_not_ready_while_fill_in_flight(self):
        cache = RegisterFileCache(lower_read_latency=2)
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        completion = cache.request_fill(register, state, cycle=10)
        assert completion == 13          # lower read (2) + upper write (1)
        access = _plan(cache, register, state, issue_cycle=11)
        assert access.source is OperandSource.NOT_READY
        assert access.retry_cycle == completion


class TestFills:
    def test_fill_completion_inserts_into_upper(self):
        cache = RegisterFileCache()
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        completion = cache.request_fill(register, state, cycle=10)
        assert completion == 12
        assert not cache.present_in_upper(register)
        cache.begin_cycle(completion)
        assert cache.present_in_upper(register)
        assert cache.demand_fills == 1

    def test_fill_denied_when_all_buses_busy(self):
        cache = RegisterFileCache(num_buses=1)
        window, scoreboard = _window()
        first, state1 = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        second, state2 = _produced_state(scoreboard, 41, ex_end=5, rf_ready=6)
        assert cache.request_fill(first, state1, cycle=10) is not None
        assert cache.request_fill(second, state2, cycle=10) is None
        assert cache.buses.transfers_denied == 1

    def test_fill_for_resident_register_is_trivial(self):
        cache = RegisterFileCache(caching_policy=AlwaysCaching())
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        assert cache.request_fill(register, state, cycle=10) == 10

    def test_duplicate_fill_requests_share_the_transfer(self):
        cache = RegisterFileCache()
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        first = cache.request_fill(register, state, cycle=10)
        second = cache.request_fill(register, state, cycle=11)
        assert first == second
        assert cache.buses.transfers_started == 1

    def test_fill_rejected_before_value_reaches_lower_level(self):
        cache = RegisterFileCache()
        window, scoreboard = _window()
        register = _phys(40)
        state = scoreboard.allocate(register, 0)
        state.ex_end_cycle = 9
        assert cache.request_fill(register, state, cycle=10) is None


class TestWritebackPolicies:
    def test_non_bypass_caching_skips_bypassed_values(self):
        cache = RegisterFileCache(caching_policy=NonBypassCaching())
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        state.consumed_via_bypass = True
        cache.writeback(register, state, cycle=6, window=window)
        assert not cache.present_in_upper(register)
        assert cache.results_not_cached == 1

    def test_non_bypass_caching_keeps_unbypassed_values(self):
        cache = RegisterFileCache(caching_policy=NonBypassCaching())
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        assert cache.present_in_upper(register)
        assert cache.results_cached == 1

    def test_never_caching(self):
        cache = RegisterFileCache(caching_policy=NeverCaching())
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        assert not cache.present_in_upper(register)

    def test_upper_write_port_conflict_skips_caching(self):
        cache = RegisterFileCache(caching_policy=AlwaysCaching(), upper_write_ports=1)
        window, scoreboard = _window()
        a, state_a = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        b, state_b = _produced_state(scoreboard, 41, ex_end=5, rf_ready=6)
        cache.writeback(a, state_a, cycle=6, window=window)
        cache.writeback(b, state_b, cycle=6, window=window)
        assert cache.present_in_upper(a)
        assert not cache.present_in_upper(b)
        assert cache.cache_write_conflicts == 1

    def test_lower_write_port_contention_delays_availability(self):
        cache = RegisterFileCache(lower_write_ports=1, caching_policy=NeverCaching())
        window, scoreboard = _window()
        a, state_a = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        b, state_b = _produced_state(scoreboard, 41, ex_end=5, rf_ready=6)
        assert cache.writeback(a, state_a, cycle=6, window=window) == 6
        assert cache.writeback(b, state_b, cycle=6, window=window) == 7

    def test_ready_caching_requires_ready_waiting_consumer(self):
        cache = RegisterFileCache(caching_policy=ReadyCaching())
        window, scoreboard = _window()
        producer_reg, producer_state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        other_ready = _phys(41)
        scoreboard.seed_architected(other_ready)
        consumer = IssueQueueEntry(
            instruction=DynamicInstruction(seq=9, op_class=OpClass.INT_ALU,
                                           dest=INT_LOGICAL_REGISTERS[3],
                                           sources=(INT_LOGICAL_REGISTERS[1],
                                                    INT_LOGICAL_REGISTERS[2])),
            dest=_phys(50), sources=(producer_reg, other_ready),
        )
        window.dispatch(consumer, cycle=2)
        cache.writeback(producer_reg, producer_state, cycle=6, window=window)
        assert cache.present_in_upper(producer_reg)

    def test_ready_caching_skips_when_other_operand_missing(self):
        cache = RegisterFileCache(caching_policy=ReadyCaching())
        window, scoreboard = _window()
        producer_reg, producer_state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        pending = _phys(42)
        scoreboard.allocate(pending, producer_seq=8)   # not produced yet
        consumer = IssueQueueEntry(
            instruction=DynamicInstruction(seq=9, op_class=OpClass.INT_ALU,
                                           dest=INT_LOGICAL_REGISTERS[3],
                                           sources=(INT_LOGICAL_REGISTERS[1],
                                                    INT_LOGICAL_REGISTERS[2])),
            dest=_phys(50), sources=(producer_reg, pending),
        )
        window.dispatch(consumer, cycle=2)
        cache.writeback(producer_reg, producer_state, cycle=6, window=window)
        assert not cache.present_in_upper(producer_reg)


class TestEvictionAndRelease:
    def test_eviction_when_upper_is_full(self):
        cache = RegisterFileCache(upper_capacity=4, caching_policy=AlwaysCaching())
        window, scoreboard = _window()
        registers = []
        for index in range(5):
            register, state = _produced_state(scoreboard, 40 + index, ex_end=5, rf_ready=6)
            cache.writeback(register, state, cycle=6 + index, window=window)
            registers.append(register)
        assert cache.evictions == 1
        resident = sum(cache.present_in_upper(r) for r in registers)
        assert resident == 4

    def test_release_removes_from_upper_and_pending(self):
        cache = RegisterFileCache(caching_policy=AlwaysCaching())
        window, scoreboard = _window()
        register, state = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        cache.writeback(register, state, cycle=6, window=window)
        cache.release(register)
        assert not cache.present_in_upper(register)

    def test_read_ports_enforced(self):
        cache = RegisterFileCache(upper_read_ports=1, caching_policy=AlwaysCaching())
        window, scoreboard = _window()
        a, state_a = _produced_state(scoreboard, 40, ex_end=5, rf_ready=6)
        b, state_b = _produced_state(scoreboard, 41, ex_end=5, rf_ready=6)
        cache.writeback(a, state_a, cycle=6, window=window)
        cache.writeback(b, state_b, cycle=6, window=window)
        cache.begin_cycle(10)
        access_a = _plan(cache, a, state_a, issue_cycle=10)
        access_b = _plan(cache, b, state_b, issue_cycle=10)
        assert cache.can_claim_reads([access_a])
        cache.claim_reads([access_a])
        # The single upper-level read port is used for this cycle.
        assert not cache.can_claim_reads([access_b])
        cache.begin_cycle(11)
        assert cache.can_claim_reads([access_b])


class TestPrefetchFirstPair:
    def test_prefetches_other_operand_of_first_consumer(self):
        cache = RegisterFileCache(fetch_policy=PrefetchFirstPair(),
                                  caching_policy=NonBypassCaching())
        window, scoreboard = _window()
        # The issuing producer writes dest; its first consumer also needs
        # `other`, which sits only in the lower level.
        dest = _phys(50)
        scoreboard.allocate(dest, producer_seq=5)
        other, other_state = _produced_state(scoreboard, 60, ex_end=1, rf_ready=2)
        producer = IssueQueueEntry(
            instruction=DynamicInstruction(seq=5, op_class=OpClass.INT_ALU,
                                           dest=INT_LOGICAL_REGISTERS[4]),
            dest=dest, sources=(),
        )
        consumer = IssueQueueEntry(
            instruction=DynamicInstruction(seq=6, op_class=OpClass.INT_ALU,
                                           dest=INT_LOGICAL_REGISTERS[5],
                                           sources=(INT_LOGICAL_REGISTERS[4],
                                                    INT_LOGICAL_REGISTERS[6])),
            dest=_phys(51), sources=(dest, other),
        )
        producer_entry = window.dispatch(producer, cycle=0)
        window.dispatch(consumer, cycle=0)
        cache.on_issue(producer_entry, cycle=3, window=window, scoreboard=scoreboard)
        assert cache.prefetch_fills == 1
        assert cache.fill_in_flight(other) is not None

    def test_no_prefetch_when_operand_already_resident(self):
        cache = RegisterFileCache(fetch_policy=PrefetchFirstPair(),
                                  caching_policy=AlwaysCaching())
        window, scoreboard = _window()
        dest = _phys(50)
        scoreboard.allocate(dest, producer_seq=5)
        other, other_state = _produced_state(scoreboard, 60, ex_end=1, rf_ready=2)
        cache.writeback(other, other_state, cycle=2, window=window)
        producer = IssueQueueEntry(
            instruction=DynamicInstruction(seq=5, op_class=OpClass.INT_ALU,
                                           dest=INT_LOGICAL_REGISTERS[4]),
            dest=dest, sources=(),
        )
        consumer = IssueQueueEntry(
            instruction=DynamicInstruction(seq=6, op_class=OpClass.INT_ALU,
                                           dest=INT_LOGICAL_REGISTERS[5],
                                           sources=(INT_LOGICAL_REGISTERS[4],
                                                    INT_LOGICAL_REGISTERS[6])),
            dest=_phys(51), sources=(dest, other),
        )
        producer_entry = window.dispatch(producer, cycle=0)
        window.dispatch(consumer, cycle=0)
        cache.on_issue(producer_entry, cycle=3, window=window, scoreboard=scoreboard)
        assert cache.prefetch_fills == 0

    def test_fetch_on_demand_never_prefetches(self):
        cache = RegisterFileCache(fetch_policy=FetchOnDemand())
        window, scoreboard = _window()
        dest = _phys(50)
        scoreboard.allocate(dest, producer_seq=5)
        producer = IssueQueueEntry(
            instruction=DynamicInstruction(seq=5, op_class=OpClass.INT_ALU,
                                           dest=INT_LOGICAL_REGISTERS[4]),
            dest=dest, sources=(),
        )
        entry = window.dispatch(producer, cycle=0)
        cache.on_issue(entry, cycle=3, window=window, scoreboard=scoreboard)
        assert cache.prefetch_fills == 0
