"""Recording the frontend of one canonical pipeline run.

The recorder materializes the workload, then runs one full pipeline
simulation (the cheapest architecture by default — a 1-cycle monolithic
register file) with a :class:`RecordingFetchUnit` in place of the plain
fetch unit.  The commit limit is lifted to the stream length so fetch
consumes the *entire* stream under fully live conditions: every branch
resolves and trains the predictor exactly as a live run would, so the
recorded events are valid for any replayed commit budget up to the
stream length (a simulation with a higher commit limit is
cycle-identical to one with a lower limit until the lower limit stops).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import DynamicInstruction
from repro.memsys.cache import CacheModel
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.trace.schema import (
    ENDS_BLOCKED,
    EXHAUSTS,
    DecodedTrace,
    FetchEvent,
    frontend_fingerprint,
    trace_key,
)


def _canonical_regfile() -> SingleBankedRegisterFile:
    """The recording backend: cheap to simulate, timing-irrelevant.

    Frontend outcomes are backend-independent in this simulator: fetch
    blocks on every mispredicted branch until it resolves (so the
    history repair always precedes the next prediction) and group
    composition never reads the cycle counter — the backend only
    determines how fast the recording run itself finishes.  The one
    theoretical exception is gshare counter-*training* order between
    in-flight branches (updates land at backend-dependent write-back
    times), which could in principle flip an aliased prediction near a
    saturation boundary.  Empirically it never does across the full
    architecture matrix and severe backend perturbations —
    ``tests/test_trace_replay.py`` re-verifies the bit-identity contract
    on every run, and ``repro.validate``'s live differential run
    (``--no-trace-replay``) detects a workload that ever hits the corner.
    """
    return SingleBankedRegisterFile(latency=1, bypass_levels=1)


class RecordingFetchUnit(FetchUnit):
    """A fetch unit that logs one event per delivering ``fetch()`` call.

    Calls that return empty-handed *without* touching any state (blocked
    on a mispredicted branch, inside a stall window) are not events: the
    replayer reproduces those from its own stall/block bookkeeping.
    Empty calls that consumed an I-cache miss or discovered stream
    exhaustion are events — they change observable state.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.events: list[FetchEvent] = []
        self._recorded_exhaustion = False

    def fetch(self, cycle: int):
        icache = self.icache
        hits_before = icache.hits
        misses_before = icache.misses
        group = super().fetch(cycle)
        hits = icache.hits - hits_before
        misses = icache.misses - misses_before
        exhausts = self.exhausted and not self._recorded_exhaustion
        if not group and not hits and not misses and not exhausts:
            return group  # blocked / stalled no-op; not an event
        flags = 0
        if self.blocked and group:
            # ``fetch`` only delivers while unblocked, so a blocked state
            # after the call means this very group ended on a
            # mispredicted branch (always its last instruction).
            flags |= ENDS_BLOCKED
        if exhausts:
            flags |= EXHAUSTS
            self._recorded_exhaustion = True
        post_stall = self._stalled_until - cycle
        if post_stall < 0:
            post_stall = 0
        self.events.append((len(group), post_stall, hits, misses, flags))
        return group


def record_trace_with_stats(
    name: str,
    instructions: Iterable[DynamicInstruction],
    config: ProcessorConfig,
    workload_id: dict,
    canonical_factory: Optional[Callable] = None,
):
    """Like :func:`record_trace`, also returning the recording run's stats.

    The recording run is a complete, fully live simulation of
    ``(canonical_factory, config-with-lifted-commit-limit)``.  When the
    caller's point already commits the whole stream (no warmup slack, no
    occupancy collection, no explicit cycle cap) and ``canonical_factory``
    is that point's own factory, the returned statistics *are* the
    point's live results — the scheduler harvests them instead of
    replaying the recording point a second time.
    """
    stream = list(instructions)
    record_config = config.with_overrides(
        max_instructions=len(stream),
        max_cycles=None,
        collect_occupancy=False,
    )
    icache = CacheModel(record_config.icache, name="icache")
    predictor = GSharePredictor(record_config.branch_predictor_entries)
    btb = BranchTargetBuffer(record_config.btb_entries)
    unit = RecordingFetchUnit(
        iter(stream), icache, predictor, btb, width=record_config.fetch_width
    )
    factory = canonical_factory or _canonical_regfile
    stats = simulate(None, factory, record_config, benchmark_name=name,
                     frontend=unit)
    trace = DecodedTrace(
        name=name,
        key=trace_key(workload_id, config),
        workload=dict(workload_id),
        frontend=frontend_fingerprint(config),
        instructions=stream,
        events=unit.events,
    )
    return trace, stats


def record_trace(
    name: str,
    instructions: Iterable[DynamicInstruction],
    config: ProcessorConfig,
    workload_id: dict,
    canonical_factory: Optional[Callable] = None,
) -> DecodedTrace:
    """Run workload + frontend once and materialize the decoded trace.

    ``config`` supplies the frontend-relevant parameters; its backend
    fields only affect how fast the recording run finishes.  The
    returned trace replays bit-identically for any backend whose config
    shares :func:`~repro.trace.schema.frontend_fingerprint` with
    ``config`` and whose commit budget does not exceed the stream
    length.
    """
    trace, _ = record_trace_with_stats(
        name, instructions, config, workload_id, canonical_factory
    )
    return trace
