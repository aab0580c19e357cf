"""Replaying a decoded trace through the pipeline's frontend seam.

A :class:`TraceReplayer` implements the frontend-source protocol of
:class:`~repro.pipeline.processor.Processor` (``exhausted``, ``blocked``,
``fetch_into``, ``on_branch_writeback``, ``icache_hits`` /
``icache_misses``) by walking the trace's recorded fetch events instead
of running the workload generator, the I-cache, gshare and the BTB.
Stall and block *timing* is still computed live — it depends on when the
backend resolves branches — from the per-event stall deltas and the
blocked-on-branch flags, using exactly the live fetch unit's rules.
"""

from __future__ import annotations

from typing import Optional

from repro.pipeline.processor import simulate
from repro.pipeline.stats import SimulationStats
from repro.trace.schema import ENDS_BLOCKED, EXHAUSTS, DecodedTrace


class TraceReplayer:
    """One pipeline run's frontend, fed from a :class:`DecodedTrace`.

    Replayers of one trace share its prebuilt fetch groups (rewriting
    ``fetch_cycle`` in place), so runs over the same trace must be
    sequential within a process.
    """

    __slots__ = (
        "trace",
        "_groups",
        "_next_event",
        "_num_events",
        "_stalled_until",
        "_blocked_seq",
        "blocked",
        "exhausted",
        "icache_hits",
        "icache_misses",
    )

    def __init__(self, trace: DecodedTrace, start_event: int = 0) -> None:
        self.trace = trace
        self._groups = trace.replay_groups()
        if not 0 <= start_event <= len(self._groups):
            raise ValueError(
                f"start_event {start_event} outside trace "
                f"({len(self._groups)} fetch events)"
            )
        # Mid-stream replay (sampling windows): begin
        # delivering at a fetch-event boundary instead of event 0.
        self._next_event = start_event
        self._num_events = len(self._groups)
        self._stalled_until = -1
        self._blocked_seq: Optional[int] = None
        #: Plain attributes, as on the live fetch unit: the pipeline reads
        #: both every cycle.
        self.blocked = False
        self.exhausted = False
        self.icache_hits = 0
        self.icache_misses = 0

    # ------------------------------------------------------------------
    # frontend-source protocol
    # ------------------------------------------------------------------

    def fetch_into(self, decode_queue, stats, cycle: int) -> None:
        if self.blocked or cycle <= self._stalled_until:
            return
        index = self._next_event
        if index >= self._num_events:
            # Mirror the live fetch unit: stream exhaustion is discovered
            # by the fetch call that tries to read past the end.
            self.exhausted = True
            return
        self._next_event = index + 1
        count, post_stall, hits, misses, flags, group, branches = \
            self._groups[index]
        if count:
            for fetched in group:
                fetched.fetch_cycle = cycle
            decode_queue.extend(group)
            stats.fetched_instructions += count
            stats.branch_predictions += branches
        if post_stall:
            self._stalled_until = cycle + post_stall
        if flags & ENDS_BLOCKED:
            self._blocked_seq = group[-1].instruction.seq
            self.blocked = True
        if flags & EXHAUSTS:
            self.exhausted = True
        if hits:
            self.icache_hits += hits
        if misses:
            self.icache_misses += misses

    def on_branch_writeback(self, instruction, fetched, ex_end_cycle: int) -> None:
        # Same resolution rule as ``FetchUnit.branch_resolved``; predictor
        # training is skipped — outcomes were recorded.
        blocked = self._blocked_seq
        if blocked is not None and instruction.seq >= blocked:
            self._blocked_seq = None
            self.blocked = False
            if ex_end_cycle > self._stalled_until:
                self._stalled_until = ex_end_cycle


def replay_simulate(
    trace: DecodedTrace,
    regfile_factory,
    config,
    benchmark_name: Optional[str] = None,
    commit_observer=None,
) -> SimulationStats:
    """Simulate one point by replaying ``trace`` in place of live fetch."""
    return simulate(
        None,
        regfile_factory,
        config,
        benchmark_name=benchmark_name or trace.name,
        commit_observer=commit_observer,
        frontend=trace.replayer(),
    )
