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

Implementation note: every trace recording, every set-up that
materializes a stream and every simulation of a new budget pays for
generation first, so :meth:`SyntheticWorkload.instructions` is one flat
loop over local variables.  Operand selection, destination rotation and
read planning run inline rather than as helper methods over a state
object; what the loop needs to know about an op class is one tuple per
class, built once; per-register state lives in 64-slot lists indexed by
``LogicalRegister._hash``; and the recently written registers of each
class are a dictionary kept in write order, so the fallback operand
needs no sort.  The RNG draws are the ones the original helpers made,
in the same order, so the streams are unchanged
(``tests/test_workload_stream_digest.py`` pins them).  Pending reads
stay a ``heapq`` whose due entries are all popped and the unused ones
pushed back: the heap is not stable, so which of two reads due at the
same ``seq`` comes first depends on its layout, and any other structure
would change the streams.  The two decisions a change of generated
behaviour would edit, the read-count plan and the fallback-operand
choice, are marked blocks in the loop.
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect
from dataclasses import dataclass
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
#: Address of the first instruction of the synthetic program.
_CODE_BASE = 0x1000


def _op_row(op_class: OpClass) -> tuple:
    """What the generation loop needs to know about ``op_class``.

    ``(op class, is FP, is memory, register sources, is integer ALU,
    writes a register, is branch, latency, mnemonic)``, read with one
    tuple unpack per instruction instead of ``OpClass`` property calls.
    """
    if op_class is OpClass.NOP:
        num_sources = 0
    elif op_class is OpClass.LOAD:
        num_sources = 1
    else:
        num_sources = 2
    return (op_class, op_class.is_fp, op_class.is_memory, num_sources,
            op_class is OpClass.INT_ALU, op_class.writes_register,
            op_class is OpClass.BRANCH, DEFAULT_LATENCIES[op_class],
            op_class.value)


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
        op_classes, op_weights = self._build_mix(profile)
        # ``random.choices`` rebuilds the cumulative weights on every call
        # unless they are passed in; precompute them once.  The RNG draws
        # exactly one number either way, so the streams are unchanged.
        self._op_cum_weights = list(itertools.accumulate(op_weights))
        self._op_rows = [_op_row(op_class) for op_class in op_classes]

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
        profile = self.profile
        rng = random.Random(self.seed)
        next_branch = _BranchSequencer(
            self._build_static_branches(rng), profile.branches.loop_fraction
        ).next_branch
        next_address = _MemorySequencer(profile, rng).next_address
        rng_random = rng.random
        choice = rng.choice
        randrange = rng.randrange
        heappush = heapq.heappush
        heappop = heapq.heappop

        # Register pools and per-class state are indexed by the FP flag
        # (``False`` = integer, ``True`` = FP).
        long_lived_pools = tuple(
            [LogicalRegister(reg_class, i) for i in range(_NUM_LONG_LIVED)]
            for reg_class in (RegisterClass.INT, RegisterClass.FP)
        )
        rotating_pools = tuple(
            [LogicalRegister(reg_class, _NUM_LONG_LIVED + i)
             for i in range(_NUM_ROTATING)]
            for reg_class in (RegisterClass.INT, RegisterClass.FP)
        )
        rotating_keys = tuple([reg._hash for reg in pool] for pool in rotating_pools)
        # Next rotating slot to try as a destination, per class.
        rotation = [0, 0]
        # Per-register state, indexed by ``LogicalRegister._hash`` (an
        # integer below 64, unique per register) instead of keyed by the
        # register, whose ``__hash__`` is a Python call.
        # Sequence number of the register's last write; -1 before the
        # first (long-lived registers count as written before the stream
        # starts, so early readers have a producer).
        last_writer = [-1] * 64
        # Planned reads of the register's current value not generated yet.
        protected = [0] * 64
        # Registers written during this pass, per class, oldest write
        # first: a rewrite moves a register to the end.  Every write has
        # its own ``seq``, so this order reversed is the registers sorted
        # by last write, newest first.
        recent_writes = ({}, {})
        # Planned future reads, a heap on their due ``seq``.
        pending: list[_PendingRead] = []

        locality = profile.dependency_locality
        never_read = profile.never_read_fraction
        read_at_most_once = never_read + profile.read_once_fraction
        read_at_most_twice = read_at_most_once + profile.read_twice_fraction
        two_chained = profile.two_chained_fraction
        long_lived_source = 0.72 + profile.long_range_fraction
        fp_memory = profile.is_fp

        pc = _CODE_BASE
        code_limit = _CODE_BASE + profile.code_footprint_bytes
        op_rows = self._op_rows
        op_cum_weights = self._op_cum_weights
        op_total = op_cum_weights[-1]
        op_hi = len(op_rows) - 1
        for seq in range(count):
            # Inlined ``rng.choices(op_classes, cum_weights=..., k=1)[0]``:
            # one uniform draw and a bisect, identical RNG consumption.
            (op_class, fp, is_memory, num_sources, is_int_alu, writes,
             is_branch, latency, mnemonic) = op_rows[
                bisect(op_cum_weights, rng_random() * op_total, 0, op_hi)]
            if is_memory:
                # Loads/stores of FP benchmarks mostly move FP data.
                fp = fp_memory and rng_random() < 0.8

            sources = []
            if is_int_alu and rng_random() < 0.40:
                # A sizable fraction of integer ALU operations take an
                # immediate operand (addi, compare-with-constant...), i.e. a
                # single register source.
                num_sources = 1
            if num_sources:
                # Every planned read due by now leaves the heap; the ones
                # this instruction does not use go back on it.
                if pending and pending[0] <= seq:
                    due = [heappop(pending)]
                    while pending and pending[0] <= seq:
                        due.append(heappop(pending))
                else:
                    due = ()
                # Most instructions chain on a single recently produced value
                # (the other operand being a loop invariant, base pointer or
                # constant); a minority combine two in-flight values (a*b+c
                # style).  This is what keeps the number of simultaneously
                # "live and needed" registers small, as the paper measures in
                # Figure 3.
                limit = 2 if rng_random() < two_chained else 1
                if limit > num_sources:
                    limit = num_sources
                for index, read in enumerate(due):
                    if len(sources) == limit:
                        # Put this read and every later one back, in order,
                        # for a later instruction to consume.
                        for leftover in due[index:]:
                            heappush(pending, leftover)
                        break
                    register = read.register
                    key = register._hash
                    # A read whose register was rewritten since is dropped.
                    if last_writer[key] == read.producer_seq:
                        sources.append(register)
                        if protected[key] > 0:
                            protected[key] -= 1

                # ---- fallback-operand choice ------------------------------
                while len(sources) < num_sources:
                    # Operands that are not part of a planned producer→consumer
                    # pair mostly reference long-lived values (base pointers,
                    # constants, loop invariants): these are the values that are
                    # read many times, which keeps the "read at most once"
                    # fraction of ordinary results at the level the paper
                    # reports (85–88%).
                    if rng_random() < long_lived_source:
                        sources.append(choice(long_lived_pools[fp]))
                        continue
                    # Real code mixes tight dependences with references to
                    # older values (different loop iterations, other dataflow
                    # strands), so half of the remaining operands come from
                    # anywhere in the recent-writer window rather than hugging
                    # the most recent producer; this keeps the
                    # instruction-level parallelism of the streams realistic.
                    recent = recent_writes[fp]
                    if not recent:
                        sources.append(choice(long_lived_pools[fp]))
                        continue
                    candidates = list(recent.values())
                    if rng_random() < 0.5:
                        index = randrange(len(candidates))
                    else:
                        distance = 1
                        while rng_random() > locality and distance < 256:
                            distance += 1
                        index = min(distance - 1, len(candidates) - 1)
                    # ``index`` counts back from the newest write.
                    sources.append(candidates[-1 - index])
                # ---- end of the fallback-operand choice -------------------

            dest = None
            if writes:
                if rng_random() < 0.005:
                    # Occasionally refresh a long-lived register so it is not
                    # stale forever.
                    dest = choice(long_lived_pools[fp])
                else:
                    # Prefer a register with no outstanding planned reads, to
                    # avoid destroying a planned dependence; scan at most the
                    # whole pool, then take the slot the scan started at.
                    keys = rotating_keys[fp]
                    start = rotation[fp]
                    for offset in range(_NUM_ROTATING):
                        slot = (start + offset) % _NUM_ROTATING
                        if protected[keys[slot]] <= 0:
                            break
                    else:
                        offset = _NUM_ROTATING
                        slot = start
                    rotation[fp] = (start + offset + 1) % _NUM_ROTATING
                    dest = rotating_pools[fp][slot]

            if is_branch:
                branch, branch_taken = next_branch(rng)
                this_pc = branch.pc
                branch_target = branch.target
                pc = branch_target if branch_taken else this_pc + 4
            else:
                this_pc = pc
                branch_taken = False
                branch_target = 0
                pc += 4
                if pc >= code_limit:
                    pc = _CODE_BASE
            mem_address = next_address(rng) if is_memory else None

            # Positional: seq, op_class, dest, sources, latency, pc,
            # is_branch, branch_taken, branch_target, mem_address, mnemonic.
            yield DynamicInstruction(
                seq, op_class, dest, tuple(sources), latency, this_pc,
                is_branch, branch_taken, branch_target, mem_address, mnemonic,
            )

            if dest is not None:
                # ---- read-count plan ------------------------------------
                # Decide how many times the value produced at ``seq`` will
                # be read, and when: each read is due a sampled
                # producer→consumer distance (>= 1 instruction) later.
                draw = rng_random()
                if draw < never_read:
                    num_reads = 0
                elif draw < read_at_most_once:
                    num_reads = 1
                elif draw < read_at_most_twice:
                    num_reads = 2
                else:
                    num_reads = 3 + int(rng_random() * 3)
                key = dest._hash
                last_writer[key] = seq
                protected[key] = num_reads
                recent = recent_writes[fp]
                recent.pop(key, None)
                recent[key] = dest
                for _ in range(num_reads):
                    distance = 1
                    while rng_random() > locality and distance < 256:
                        distance += 1
                    read = _PendingRead(seq + distance)
                    read.producer_seq = seq
                    read.register = dest
                    heappush(pending, read)
                # ---- end of the read-count plan -------------------------

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

    def _build_static_branches(self, rng: random.Random) -> list[_StaticBranch]:
        spec = self.profile.branches
        branches: list[_StaticBranch] = []
        code_base = _CODE_BASE
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
