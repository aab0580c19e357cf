"""The register file cache: a two-level multiple-banked register file.

This is the architecture the paper proposes (Section 3, Figure 4b):

* the **uppermost level** is a small bank (16 registers by default) with
  many ports, a fully-associative organisation and pseudo-LRU
  replacement; it is the only bank that can feed the functional units, so
  the bypass network needs a single level, exactly as with a 1-cycle
  monolithic register file;
* the **lowest level** holds every physical register (128 by default) and
  is always written by every result;
* results are optionally also written to the uppermost level according to
  a :class:`~repro.regfile.policies.CachingPolicy`;
* values missing from the uppermost level are brought up over a limited
  number of buses, either on demand or ahead of time according to a
  :class:`~repro.regfile.prefetch.FetchPolicy`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.execute.scoreboard import ValueState
from repro.regfile.base import (
    OperandAccess,
    OperandSource,
    RegisterFileModel,
    UNLIMITED,
)
from repro.regfile.bus import TransferBusSet
from repro.regfile.policies import CachingPolicy, NonBypassCaching
from repro.regfile.ports import PortSet, WriteScheduler
from repro.regfile.prefetch import FetchPolicy, FetchOnDemand
from repro.regfile.replacement import PseudoLRU
from repro.rename.renamer import PhysicalRegister

# Operand sources bound once: the planning methods below run several
# times per instruction, and a global read is cheaper than an enum
# attribute lookup.
_BYPASS = OperandSource.BYPASS
_FILE = OperandSource.FILE
_MISS = OperandSource.MISS
_NOT_READY = OperandSource.NOT_READY


class RegisterFileCache(RegisterFileModel):
    """Two-level register file with caching and prefetching policies."""

    read_stages = 1
    bypass_levels = 1
    #: The ready-caching policy and prefetch-first-pair both walk the
    #: window's per-register consumer lists.
    needs_consumer_index = True

    def __init__(
        self,
        upper_capacity: int = 16,
        caching_policy: Optional[CachingPolicy] = None,
        fetch_policy: Optional[FetchPolicy] = None,
        upper_read_ports: Optional[int] = UNLIMITED,
        upper_write_ports: Optional[int] = UNLIMITED,
        lower_write_ports: Optional[int] = UNLIMITED,
        num_buses: Optional[int] = UNLIMITED,
        lower_read_latency: int = 1,
        name: Optional[str] = None,
    ) -> None:
        if upper_capacity <= 0 or upper_capacity & (upper_capacity - 1):
            raise ConfigurationError("upper_capacity must be a positive power of two")
        if lower_read_latency <= 0:
            raise ConfigurationError("lower_read_latency must be positive")
        self.upper_capacity = upper_capacity
        self.caching_policy = caching_policy or NonBypassCaching()
        self.fetch_policy = fetch_policy or FetchOnDemand()
        self.upper_read_ports = PortSet(upper_read_ports, kind="upper-read")
        self.upper_result_writes = WriteScheduler(upper_write_ports, kind="upper-write")
        self.lower_writes = WriteScheduler(lower_write_ports, kind="lower-write")
        self.lower_read_latency = lower_read_latency
        # A transfer reads the lowest level and then writes the uppermost
        # level; the bus is busy for the whole transfer.
        self.buses = TransferBusSet(num_buses, transfer_latency=lower_read_latency + 1)
        self._upper: PseudoLRU[int] = PseudoLRU(upper_capacity)  # keyed by register uid
        # Direct views of the upper level's residency dictionary and touch
        # masks (never rebound): issue-side residency checks and touches
        # run several times per instruction, and inlining them skips a
        # ``__contains__`` and a ``touch`` call each.
        self._upper_slots = self._upper._slot_of
        self._lru_keep = self._upper._keep
        self._lru_set = self._upper._set
        self._pending_fills: Dict[int, int] = {}
        #: Registers pinned until read because the oldest waiting instruction
        #: needs them.  Pinned entries are never evicted; since at most the
        #: two operands of one instruction are pinned and the upper level has
        #: at least four entries, an evictable way always exists and the
        #: oldest instruction is guaranteed to make forward progress even
        #: with a tiny, heavily thrashed upper level.
        self._read_pinned: set[int] = set()
        self.idle = True
        self.name = name or (
            f"register file cache ({self.caching_policy.name} caching + "
            f"{self.fetch_policy.name})"
        )
        # statistics
        self.reads_from_bypass = 0
        self.reads_from_upper = 0
        self.upper_misses = 0
        self.demand_fills = 0
        self.prefetch_fills = 0
        self.results_cached = 0
        self.results_not_cached = 0
        self.cache_write_conflicts = 0
        self.read_port_stalls = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # per-cycle bookkeeping
    # ------------------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        # Direct store instead of ``upper_read_ports.begin_cycle()``.  The
        # per-cycle state is the read-port budget and the fills in
        # flight: the file stays busy while a fill is pending.
        self.upper_read_ports._used = 0
        pending = self._pending_fills
        if pending:
            completed = [reg for reg, done in pending.items() if done <= cycle]
            for register in completed:
                del pending[register]
                self._insert_upper(register, cycle)
        self.idle = not pending

    def _insert_upper(self, uid: int, cycle: int) -> None:
        read_pinned = self._read_pinned
        # Without pinned registers every candidate may be evicted, which
        # is what no predicate means.
        evicted = self._upper.insert(
            uid,
            can_evict=(lambda candidate: candidate not in read_pinned)
            if read_pinned else None,
        )
        if evicted is not None:
            self.evictions += 1

    def present_in_upper(self, register: PhysicalRegister) -> bool:
        """Whether the uppermost level currently holds ``register``."""
        return register.uid in self._upper_slots

    def fill_in_flight(self, register: PhysicalRegister) -> Optional[int]:
        """Completion cycle of an in-flight fill for ``register``, if any."""
        return self._pending_fills.get(register.uid)

    # ------------------------------------------------------------------
    # reads (issue side)
    # ------------------------------------------------------------------

    def plan_operand_read(
        self, access: OperandAccess, issue_cycle: int
    ) -> OperandSource:
        # Every outcome returns as soon as it is known; this is the most
        # frequently called method of a register-file-cache simulation.
        state = access.state
        ex_end = state.ex_end_cycle
        if ex_end is None:
            access.source = _NOT_READY
            access.retry_cycle = None
            return _NOT_READY
        ex_start = issue_cycle + self.read_stages
        if ex_start <= ex_end:
            access.source = _NOT_READY
            access.retry_cycle = ex_end
            return _NOT_READY
        access.retry_cycle = None
        if ex_start == ex_end + 1:
            # The single bypass level catches results exactly one cycle
            # after the producer finishes.
            access.source = _BYPASS
            return _BYPASS
        uid = access.register.uid
        slot = self._upper_slots.get(uid)
        if slot is not None:
            # Mark the entry hot (an inlined ``PseudoLRU.touch``): the
            # instruction planning this read may be waiting for another
            # operand, and this copy must survive until both are
            # available.
            upper = self._upper
            upper._state = (upper._state & self._lru_keep[slot]) | self._lru_set[slot]
            access.source = _FILE
            return _FILE
        retry = self._pending_fills.get(uid)
        if retry is None:
            rf_ready = state.rf_ready_cycle
            if state.written_back and rf_ready is not None and issue_cycle >= rf_ready:
                access.source = _MISS
                return _MISS
            retry = rf_ready
        access.source = _NOT_READY
        access.retry_cycle = retry
        return _NOT_READY

    def can_claim_reads(self, accesses: Sequence[OperandAccess]) -> bool:
        if self.upper_read_ports.count is None:
            return True
        needed = 0
        for access in accesses:
            if access.source is _FILE:
                needed += 1
        if needed == 0:
            return True
        available = self.upper_read_ports.available_capped(needed)
        if not available:
            self.read_port_stalls += 1
        return available

    def claim_reads(self, accesses: Sequence[OperandAccess]) -> None:
        needed = 0
        bypassed = 0
        upper_slots = self._upper_slots
        read_pinned = self._read_pinned
        for access in accesses:
            source = access.source
            if source is _FILE:
                needed += 1
                uid = access.register.uid
                slot = upper_slots.get(uid)
                if slot is not None:
                    upper = self._upper
                    upper._state = (
                        (upper._state & self._lru_keep[slot]) | self._lru_set[slot])
                if read_pinned:
                    read_pinned.discard(uid)
            elif source is _BYPASS:
                bypassed += 1
                if read_pinned:
                    read_pinned.discard(access.register.uid)
        self.reads_from_upper += needed
        self.reads_from_bypass += bypassed
        if needed:
            self.upper_read_ports.claim_capped(needed)
            self.idle = False

    # ------------------------------------------------------------------
    # fills and prefetches
    # ------------------------------------------------------------------

    def pin_operand(self, register: PhysicalRegister) -> None:
        uid = register.uid
        if uid in self._upper_slots or uid in self._pending_fills:
            self._read_pinned.add(uid)

    def request_fill(
        self,
        register: PhysicalRegister,
        state: ValueState,
        cycle: int,
        prefetch: bool = False,
        pin: bool = False,
    ) -> Optional[int]:
        """Start moving ``register`` from the lowest to the uppermost level.

        Returns the completion cycle, or ``None`` when the transfer cannot
        start (value not yet written back, or all buses busy).
        """
        uid = register.uid
        if uid in self._upper_slots:
            return cycle
        pending = self._pending_fills.get(uid)
        if pending is not None:
            return pending
        if not state.written_back or state.rf_ready_cycle is None:
            return None
        if cycle < state.rf_ready_cycle:
            return None
        completion = self.buses.try_start_transfer(cycle)
        if completion is None:
            return None
        self._pending_fills[uid] = completion
        self.idle = False
        if pin:
            self._read_pinned.add(uid)
        if prefetch:
            self.prefetch_fills += 1
        else:
            self.demand_fills += 1
        return completion

    def on_issue(self, entry, cycle: int, window, scoreboard) -> None:
        self.fetch_policy.on_issue(self, entry, cycle, window, scoreboard)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def writeback(
        self,
        register: PhysicalRegister,
        state: ValueState,
        cycle: int,
        window,
    ) -> int:
        lower_ready = self.lower_writes.schedule(cycle)
        if self.caching_policy.should_cache(register, state, window, cycle):
            if self.upper_result_writes.reserve(cycle):
                self._insert_upper(register.uid, cycle)
                self.results_cached += 1
            else:
                self.cache_write_conflicts += 1
                self.results_not_cached += 1
        else:
            self.results_not_cached += 1
        return lower_ready

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------

    def release(self, register: PhysicalRegister) -> None:
        uid = register.uid
        self._upper.remove(uid)
        self._pending_fills.pop(uid, None)
        self._read_pinned.discard(uid)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        reads = "inf" if self.upper_read_ports.unlimited else str(self.upper_read_ports.count)
        writes = (
            "inf"
            if self.upper_result_writes.unlimited
            else str(self.upper_result_writes.ports_per_cycle)
        )
        buses = "inf" if self.buses.unlimited else str(self.buses.count)
        return f"{self.name} ({reads}R/{writes}W upper, {buses} buses)"

    def statistics(self) -> dict:
        return {
            "reads_from_bypass": self.reads_from_bypass,
            "reads_from_upper": self.reads_from_upper,
            "upper_misses": self.upper_misses,
            "demand_fills": self.demand_fills,
            "prefetch_fills": self.prefetch_fills,
            "results_cached": self.results_cached,
            "results_not_cached": self.results_not_cached,
            "cache_write_conflicts": self.cache_write_conflicts,
            "read_port_stalls": self.read_port_stalls,
            "evictions": self.evictions,
            "bus_transfers": self.buses.transfers_started,
            "bus_denied": self.buses.transfers_denied,
        }
