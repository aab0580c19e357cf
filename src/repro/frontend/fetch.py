"""Instruction fetch unit.

Models an 8-wide fetch stage (Table 1: up to one taken branch per cycle)
fed by a dynamic instruction stream, an I-cache timing model, a gshare
direction predictor and a BTB.

Because the simulator is stream driven (it only has the correct execution
path), branch mispredictions are modelled the standard trace-driven way:
the fetch unit keeps fetching down the correct path, but the processor
blocks fetch from the cycle after a mispredicted branch is fetched until
the branch resolves, which charges the full front-end refill penalty.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import ConfigurationError
from repro.execute.issue_queue import IssueQueueEntry
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import DynamicInstruction
from repro.memsys.cache import CacheModel


class FetchUnit:
    """Fetches up to ``width`` instructions per cycle from a stream."""

    #: Bubble (cycles) when a predicted-taken branch misses in the BTB and
    #: the target has to be produced by the decoder.
    _BTB_MISS_BUBBLE = 2

    def __init__(
        self,
        stream: Iterator[DynamicInstruction],
        icache: CacheModel,
        predictor: GSharePredictor,
        btb: BranchTargetBuffer,
        width: int = 8,
    ) -> None:
        if width <= 0:
            raise ConfigurationError("fetch width must be positive")
        self._stream = iter(stream)
        self.icache = icache
        self.predictor = predictor
        self.btb = btb
        self.width = width
        #: An instruction read from the stream but not delivered yet (its
        #: I-cache line missed); delivered first by the next fetch.
        self._pending: Optional[DynamicInstruction] = None
        #: True once a read found the stream empty.  Nothing is pending
        #: then — only a delivered instruction can be pushed back — so this
        #: alone means "nothing left to fetch".  A plain attribute, like
        #: ``blocked``: the pipeline reads both every cycle.
        self.exhausted = False
        self._stalled_until = -1
        self._blocked_on_seq: Optional[int] = None
        #: True while waiting for a mispredicted branch to resolve.
        self.blocked = False

    # ------------------------------------------------------------------

    def block_on_branch(self, seq: int) -> None:
        """Stop fetching until the mispredicted branch ``seq`` resolves."""
        if self._blocked_on_seq is None or seq < self._blocked_on_seq:
            self._blocked_on_seq = seq
            self.blocked = True

    def branch_resolved(self, seq: int, cycle: int) -> None:
        """Resume fetch (from ``cycle`` + 1) after branch ``seq`` resolves."""
        if self._blocked_on_seq is not None and seq >= self._blocked_on_seq:
            self._blocked_on_seq = None
            self.blocked = False
            self._stalled_until = max(self._stalled_until, cycle)

    # ------------------------------------------------------------------
    # frontend-source protocol (shared with repro.trace.TraceReplayer)
    # ------------------------------------------------------------------

    @property
    def icache_hits(self) -> int:
        """I-cache hits observed by this frontend (for final statistics)."""
        return self.icache.hits

    @property
    def icache_misses(self) -> int:
        """I-cache misses observed by this frontend (for final statistics)."""
        return self.icache.misses

    def on_branch_writeback(self, entry: IssueQueueEntry, ex_end_cycle: int) -> None:
        """A fetched branch wrote back: train the predictor and unblock fetch.

        This is the only backend→frontend edge of the pipeline; routing it
        through the frontend object lets a trace replayer substitute its
        own (predictor-free) handling without touching the pipeline.
        """
        instruction = entry.instruction
        self.predictor.update(
            instruction.pc,
            instruction.branch_taken,
            entry.history_checkpoint,
            entry.predicted_taken,
        )
        self.branch_resolved(entry.seq, ex_end_cycle)

    def fetch_into(self, decode_queue, stats, cycle: int) -> None:
        """Run one fetch stage for ``cycle``.

        Appends one in-flight record per fetched instruction to
        ``decode_queue`` and accounts the fetched instructions and branch
        predictions in ``stats``.  Nothing is fetched while stalled
        (I-cache miss refill, blocked on an unresolved mispredicted
        branch) or once the stream is exhausted.
        """
        if self.blocked or cycle <= self._stalled_until:
            return

        append = decode_queue.append
        fetched = 0
        branches = 0
        current_line: Optional[int] = None
        icache = self.icache
        line_bytes = icache.config.line_bytes
        width = self.width
        while fetched < width:
            # The pushed-back instruction first, then the stream.
            inst = self._pending
            if inst is not None:
                self._pending = None
            elif self.exhausted:
                break
            else:
                inst = next(self._stream, None)
                if inst is None:
                    self.exhausted = True
                    break

            line = inst.pc // line_bytes
            if line != current_line:
                result = icache.access(inst.pc)
                if not result.hit:
                    # The group ends; refill charges latency-1 extra cycles,
                    # and this instruction is retried once the line arrives.
                    self._stalled_until = cycle + result.latency - icache.config.hit_latency
                    self._pending = inst
                    break
                current_line = line

            entry = IssueQueueEntry(inst, cycle)
            append(entry)
            fetched += 1
            if not inst.is_branch:
                continue
            branches += 1
            self._predict_branch(entry, inst, cycle)
            if entry.mispredicted:
                # Everything after a mispredicted branch would be wrong-path
                # work; stop fetching until the branch resolves.
                self.block_on_branch(inst.seq)
                break
            if entry.predicted_taken or inst.branch_taken:
                # At most one taken branch per cycle: the group ends here.
                break

        if fetched:
            stats.branch_predictions += branches
            stats.fetched_instructions += fetched

    def _predict_branch(self, entry: IssueQueueEntry, inst: DynamicInstruction,
                        cycle: int) -> None:
        """Predict the branch ``inst`` and record the outcome on ``entry``."""
        predicted_taken, checkpoint = self.predictor.predict(inst.pc)
        btb_hit = self.btb.lookup(inst.pc) is not None
        if predicted_taken and inst.branch_taken and not btb_hit:
            # Correct direction but no cached target: the front end redirects
            # from decode instead of fetch, costing a short bubble.
            self._stalled_until = max(self._stalled_until, cycle + self._BTB_MISS_BUBBLE)
        if inst.branch_taken:
            self.btb.insert(inst.pc, inst.branch_target)
        entry.predicted_taken = predicted_taken
        entry.history_checkpoint = checkpoint
        entry.mispredicted = predicted_taken != inst.branch_taken
