"""Synthetic dynamic-instruction-stream generator.

This module turns a :class:`~repro.workloads.profiles.BenchmarkProfile`
into a deterministic stream of
:class:`~repro.isa.instruction.DynamicInstruction` objects with

* the profile's instruction mix,
* controlled producer→consumer distances (so the fraction of operands
  satisfied by the bypass network is realistic),
* controlled value read counts (never read / read once / read twice /
  read many), matching the paper's observation that most register values
  are read at most once,
* a pool of static branches with loop-like and data-dependent behaviour
  (so a real gshare predictor achieves realistic accuracy), and
* memory addresses mixing sequential streams and random accesses within a
  working set (so the data cache behaves realistically).

The stream is produced lazily and is fully reproducible from
``(profile, seed)``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import WorkloadError
from repro.isa.instruction import (
    DynamicInstruction,
    LogicalRegister,
    RegisterClass,
)
from repro.isa.opcodes import DEFAULT_LATENCIES, OpClass
from repro.workloads.profiles import BenchmarkProfile

#: Registers per class reserved for long-lived values (base pointers,
#: loop-invariant values).  They are written rarely and read often.
_NUM_LONG_LIVED = 4
#: Registers per class used as rotating destinations for ordinary values.
_NUM_ROTATING = 24


@dataclass
class _StaticBranch:
    """State of one static branch site in the synthetic program."""

    pc: int
    target: int
    is_loop: bool
    trip_count: int = 0
    bias: float = 0.5
    pattern: tuple[bool, ...] = ()
    _position: int = 0

    def next_outcome(self, rng: random.Random) -> bool:
        if self.is_loop:
            # Taken (back edge) trip_count - 1 times, then falls through.
            self._position += 1
            if self._position >= self.trip_count:
                self._position = 0
                return False
            return True
        if self.pattern:
            outcome = self.pattern[self._position % len(self.pattern)]
            self._position += 1
            return outcome
        return rng.random() < self.bias


class _BranchSequencer:
    """Generates a realistic dynamic branch sequence from a static pool.

    Real programs execute branches in coherent episodes: a loop's back
    edge repeats (taken) until the trip count is exhausted, interleaved
    with data-dependent branches from the loop body.  Modelling episodes
    (instead of drawing a random static branch every time) is what lets a
    real gshare predictor reach realistic accuracies on the synthetic
    streams: integer-code profiles land around 90–95% and FP profiles
    above 97%, as in the published SPEC95 characterisations.
    """

    def __init__(self, branches: list[_StaticBranch], loop_fraction: float) -> None:
        self._loops = [b for b in branches if b.is_loop]
        self._others = [b for b in branches if not b.is_loop]
        self._loop_fraction = loop_fraction if self._loops else 0.0
        self._current_loop: _StaticBranch | None = None

    def next_branch(self, rng: random.Random) -> tuple[_StaticBranch, bool]:
        """Return the next dynamic branch (static site, outcome)."""
        use_loop = self._loops and (
            not self._others or rng.random() < self._loop_fraction
        )
        if use_loop:
            if self._current_loop is None:
                self._current_loop = rng.choice(self._loops)
            branch = self._current_loop
            taken = branch.next_outcome(rng)
            if not taken:
                # The loop exited; the next back edge belongs to a new loop.
                self._current_loop = rng.choice(self._loops)
            return branch, taken
        branch = rng.choice(self._others) if self._others else rng.choice(self._loops)
        return branch, branch.next_outcome(rng)


class _MemorySequencer:
    """Generates load/store addresses with realistic locality.

    A configurable fraction of references walk sequential streams; the
    rest are scattered, mostly within a small hot region (stack and hot
    heap objects) and occasionally across the full working set.
    """

    _BASE = 0x100000

    def __init__(self, profile: BenchmarkProfile, rng: random.Random) -> None:
        self._memory = profile.memory
        self._streams = [
            self._BASE + rng.randrange(self._memory.working_set_bytes)
            for _ in range(self._memory.num_streams)
        ]

    def next_address(self, rng: random.Random) -> int:
        memory = self._memory
        if self._streams and rng.random() < memory.streaming_fraction:
            index = rng.randrange(len(self._streams))
            address = self._streams[index]
            self._streams[index] = self._BASE + (
                address - self._BASE + memory.stride_bytes
            ) % memory.working_set_bytes
            return address
        if rng.random() < memory.hot_fraction:
            return self._BASE + (rng.randrange(memory.hot_region_bytes) & ~0x7)
        return self._BASE + (rng.randrange(memory.working_set_bytes) & ~0x7)


class _PendingRead(float):
    """A planned future read of a produced value.

    The number itself is the due sequence number, so ``heapq`` orders
    pending reads with C-level comparisons; reads due at the same
    sequence number stay unordered among themselves, exactly as with a
    Python ``__lt__`` over the due sequence number.  A ``float`` (exact
    for any sequence number below 2**53) rather than an ``int``: an
    ``int`` subclass cannot take ``__slots__``, and a ``__dict__`` per
    planned read costs about 1 MB of resident memory per stream set.
    Built as ``_PendingRead(due)`` with the other two fields assigned
    after, since a Python ``__new__`` would cost a call per read.
    """

    __slots__ = ("producer_seq", "register")

    producer_seq: int
    register: LogicalRegister


@dataclass
class _GeneratorState:
    """Mutable bookkeeping for one generation pass."""

    last_writer: dict[LogicalRegister, int] = field(default_factory=dict)
    pending_reads: list[_PendingRead] = field(default_factory=list)
    #: Registers whose planned reads have not all been generated yet;
    #: maps register -> number of outstanding planned reads.
    protected: dict[LogicalRegister, int] = field(default_factory=dict)


class SyntheticWorkload:
    """Generates the dynamic instruction stream of one synthetic benchmark.

    Parameters
    ----------
    profile:
        The benchmark profile to realize.
    seed:
        Optional seed overriding the profile's default seed; two workloads
        constructed with the same (profile, seed) produce identical
        streams.
    """

    def __init__(self, profile: BenchmarkProfile, seed: Optional[int] = None) -> None:
        self.profile = profile
        self.seed = profile.seed if seed is None else seed
        self._op_classes, self._op_weights = self._build_mix(profile)
        # ``random.choices`` rebuilds the cumulative weights on every call
        # unless they are passed in; precompute them once.  The RNG draws
        # exactly one number either way, so the streams are unchanged.
        self._op_cum_weights = list(itertools.accumulate(self._op_weights))

    @property
    def name(self) -> str:
        return self.profile.name

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def instructions(self, count: int) -> Iterator[DynamicInstruction]:
        """Yield ``count`` dynamic instructions.

        The stream restarts from the beginning on every call, so repeated
        calls with the same count yield identical streams.
        """
        if count <= 0:
            raise WorkloadError("instruction count must be positive")
        rng = random.Random(self.seed)
        branch_sequencer = _BranchSequencer(
            self._build_static_branches(rng), self.profile.branches.loop_fraction
        )
        memory_sequencer = _MemorySequencer(self.profile, rng)
        state = _GeneratorState()
        rotating_int = self._register_pool(RegisterClass.INT)
        rotating_fp = self._register_pool(RegisterClass.FP)
        long_lived_int = self._long_lived_pool(RegisterClass.INT)
        long_lived_fp = self._long_lived_pool(RegisterClass.FP)
        # Long-lived registers start "written" so early readers have a producer.
        for reg in long_lived_int + long_lived_fp:
            state.last_writer[reg] = -1

        pc = 0x1000
        code_limit = 0x1000 + self.profile.code_footprint_bytes
        rotate_index = {RegisterClass.INT: 0, RegisterClass.FP: 0}

        op_classes = self._op_classes
        op_cum_weights = self._op_cum_weights
        op_total = op_cum_weights[-1]
        op_hi = len(op_classes) - 1
        rng_random = rng.random
        latencies = DEFAULT_LATENCIES
        for seq in range(count):
            # Inlined ``rng.choices(op_classes, cum_weights=..., k=1)[0]``:
            # one uniform draw and a bisect, identical RNG consumption.
            op_class = op_classes[bisect(op_cum_weights, rng_random() * op_total,
                                         0, op_hi)]
            reg_class = RegisterClass.FP if op_class.is_fp else RegisterClass.INT
            if op_class is OpClass.LOAD or op_class is OpClass.STORE:
                # Loads/stores of FP benchmarks mostly move FP data.
                if self.profile.is_fp and rng.random() < 0.8:
                    reg_class = RegisterClass.FP
                else:
                    reg_class = RegisterClass.INT

            sources = self._pick_sources(seq, op_class, reg_class, state, rng,
                                         long_lived_int, long_lived_fp)
            dest = None
            if op_class.writes_register:
                dest = self._pick_destination(
                    seq, reg_class, state, rng, rotating_int, rotating_fp,
                    long_lived_int, long_lived_fp, rotate_index,
                )

            is_branch = op_class is OpClass.BRANCH
            branch_taken = False
            branch_target = 0
            mem_address = None
            this_pc = pc

            if is_branch:
                branch, branch_taken = branch_sequencer.next_branch(rng)
                this_pc = branch.pc
                branch_target = branch.target
                pc = branch.target if branch_taken else branch.pc + 4
            else:
                pc += 4
                if pc >= code_limit:
                    pc = 0x1000
            if op_class.is_memory:
                mem_address = memory_sequencer.next_address(rng)

            yield DynamicInstruction(
                seq=seq,
                op_class=op_class,
                dest=dest,
                sources=tuple(sources),
                latency=latencies[op_class],
                pc=this_pc,
                is_branch=is_branch,
                branch_taken=branch_taken,
                branch_target=branch_target,
                mem_address=mem_address,
                mnemonic=op_class.value,
            )

            if dest is not None:
                self._plan_reads(seq, dest, state, rng)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _build_mix(profile: BenchmarkProfile) -> tuple[list[OpClass], list[float]]:
        classes = list(profile.instruction_mix.keys())
        weights = [profile.instruction_mix[c] for c in classes]
        if not classes:
            raise WorkloadError(f"profile {profile.name} has an empty instruction mix")
        return classes, weights

    def _register_pool(self, reg_class: RegisterClass) -> list[LogicalRegister]:
        start = _NUM_LONG_LIVED
        return [LogicalRegister(reg_class, start + i) for i in range(_NUM_ROTATING)]

    def _long_lived_pool(self, reg_class: RegisterClass) -> list[LogicalRegister]:
        return [LogicalRegister(reg_class, i) for i in range(_NUM_LONG_LIVED)]

    def _build_static_branches(self, rng: random.Random) -> list[_StaticBranch]:
        spec = self.profile.branches
        branches: list[_StaticBranch] = []
        code_base = 0x1000
        code_size = self.profile.code_footprint_bytes
        for i in range(spec.num_static_branches):
            branch_pc = code_base + (rng.randrange(code_size // 4)) * 4
            target = code_base + (rng.randrange(code_size // 4)) * 4
            is_loop = rng.random() < spec.loop_fraction
            if is_loop:
                trip = max(2, int(rng.gauss(spec.loop_trip_count, spec.loop_trip_count / 4)))
                branches.append(
                    _StaticBranch(pc=branch_pc, target=target, is_loop=True, trip_count=trip)
                )
            else:
                pattern: tuple[bool, ...] = ()
                if rng.random() < spec.correlated_fraction:
                    length = rng.choice((2, 3, 4, 6))
                    pattern = tuple(rng.random() < spec.data_dependent_bias
                                    for _ in range(length))
                branches.append(
                    _StaticBranch(
                        pc=branch_pc,
                        target=target,
                        is_loop=False,
                        bias=spec.data_dependent_bias,
                        pattern=pattern,
                    )
                )
        return branches

    # ------------------------------------------------------------------
    # per-instruction helpers
    # ------------------------------------------------------------------

    def _sample_distance(self, rng: random.Random) -> int:
        """Sample a producer→consumer distance (>= 1 dynamic instructions)."""
        p = self.profile.dependency_locality
        distance = 1
        while rng.random() > p and distance < 256:
            distance += 1
        return distance

    def _plan_reads(
        self, seq: int, dest: LogicalRegister, state: _GeneratorState, rng: random.Random
    ) -> None:
        """Decide how many times the value produced at ``seq`` will be read."""
        profile = self.profile
        draw = rng.random()
        if draw < profile.never_read_fraction:
            num_reads = 0
        elif draw < profile.never_read_fraction + profile.read_once_fraction:
            num_reads = 1
        elif draw < (profile.never_read_fraction + profile.read_once_fraction
                     + profile.read_twice_fraction):
            num_reads = 2
        else:
            num_reads = 3 + int(rng.random() * 3)
        state.last_writer[dest] = seq
        state.protected[dest] = num_reads
        for _ in range(num_reads):
            read = _PendingRead(seq + self._sample_distance(rng))
            read.producer_seq = seq
            read.register = dest
            heapq.heappush(state.pending_reads, read)

    _NO_READS: tuple[_PendingRead, ...] = ()

    def _due_reads(self, seq: int, state: _GeneratorState):
        pending = state.pending_reads
        if not pending or pending[0] > seq:
            return self._NO_READS
        due: list[_PendingRead] = []
        while pending and pending[0] <= seq:
            due.append(heapq.heappop(pending))
        return due

    def _pick_sources(
        self,
        seq: int,
        op_class: OpClass,
        reg_class: RegisterClass,
        state: _GeneratorState,
        rng: random.Random,
        long_lived_int: list[LogicalRegister],
        long_lived_fp: list[LogicalRegister],
    ) -> list[LogicalRegister]:
        num_sources = self._num_sources(op_class)
        if num_sources == 2 and op_class is OpClass.INT_ALU and rng.random() < 0.40:
            # A sizable fraction of integer ALU operations take an immediate
            # operand (addi, compare-with-constant...), i.e. a single
            # register source.
            num_sources = 1
        if num_sources == 0:
            return []
        sources: list[LogicalRegister] = []
        due = self._due_reads(seq, state)
        # Most instructions chain on a single recently produced value (the
        # other operand being a loop invariant, base pointer or constant);
        # a minority combine two in-flight values (a*b+c style).  This is
        # what keeps the number of simultaneously "live and needed"
        # registers small, as the paper measures in Figure 3.
        max_chained = 2 if rng.random() < self.profile.two_chained_fraction else 1
        limit = min(num_sources, max_chained)
        last_writer = state.last_writer
        protected = state.protected
        for index, read in enumerate(due):
            if len(sources) >= limit:
                # Put this read and every later one back, in order, for a
                # later instruction to consume.
                pending = state.pending_reads
                for leftover in due[index:]:
                    heapq.heappush(pending, leftover)
                break
            register = read.register
            if last_writer.get(register) == read.producer_seq:
                sources.append(register)
                remaining = protected.get(register, 0)
                if remaining > 0:
                    protected[register] = remaining - 1

        long_lived = long_lived_fp if reg_class is RegisterClass.FP else long_lived_int
        while len(sources) < num_sources:
            # Operands that are not part of a planned producer→consumer pair
            # mostly reference long-lived values (base pointers, constants,
            # loop invariants): these are the values that are read many
            # times, which keeps the "read at most once" fraction of
            # ordinary results at the level the paper reports (85–88%).
            if rng.random() < 0.72 + self.profile.long_range_fraction:
                sources.append(rng.choice(long_lived))
            else:
                sources.append(self._recent_register(reg_class, state, rng, long_lived))
        return sources[:num_sources]

    def _recent_register(
        self,
        reg_class: RegisterClass,
        state: _GeneratorState,
        rng: random.Random,
        long_lived: list[LogicalRegister],
    ) -> LogicalRegister:
        """Fallback operand when no planned read is due.

        Real code mixes tight dependences with references to older values
        (different loop iterations, other dataflow strands), so half of the
        fallback operands come from anywhere in the recent-writer window
        rather than hugging the most recent producer; this keeps the
        instruction-level parallelism of the streams realistic.
        """
        candidates = [
            (reg, written)
            for reg, written in state.last_writer.items()
            if reg.reg_class is reg_class and written >= 0
        ]
        if not candidates:
            return rng.choice(long_lived)
        candidates.sort(key=lambda item: -item[1])
        if rng.random() < 0.5:
            index = rng.randrange(len(candidates))
        else:
            index = min(self._sample_distance(rng) - 1, len(candidates) - 1)
        return candidates[index][0]

    @staticmethod
    def _num_sources(op_class: OpClass) -> int:
        if op_class is OpClass.NOP:
            return 0
        if op_class is OpClass.LOAD:
            return 1
        return 2

    def _pick_destination(
        self,
        seq: int,
        reg_class: RegisterClass,
        state: _GeneratorState,
        rng: random.Random,
        rotating_int: list[LogicalRegister],
        rotating_fp: list[LogicalRegister],
        long_lived_int: list[LogicalRegister],
        long_lived_fp: list[LogicalRegister],
        rotate_index: dict[RegisterClass, int],
    ) -> LogicalRegister:
        # Occasionally refresh a long-lived register so it is not stale forever.
        long_lived = long_lived_fp if reg_class is RegisterClass.FP else long_lived_int
        if rng.random() < 0.005:
            return rng.choice(long_lived)
        pool = rotating_fp if reg_class is RegisterClass.FP else rotating_int
        # Prefer a register with no outstanding planned reads, to avoid
        # destroying a planned dependence; scan at most the whole pool.
        for _ in range(len(pool)):
            index = rotate_index[reg_class] % len(pool)
            rotate_index[reg_class] += 1
            candidate = pool[index]
            if state.protected.get(candidate, 0) <= 0:
                return candidate
        index = rotate_index[reg_class] % len(pool)
        rotate_index[reg_class] += 1
        return pool[index]
