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

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import DynamicInstruction
from repro.memsys.cache import CacheModel


@dataclass(slots=True)
class FetchedInstruction:
    """A dynamic instruction annotated with front-end prediction state.

    Built with positional arguments on the fetch path (one per fetched
    instruction); only branches carry prediction state.
    """

    instruction: DynamicInstruction
    fetch_cycle: int
    predicted_taken: bool = False
    history_checkpoint: int = 0
    mispredicted: bool = False

    @property
    def seq(self) -> int:
        return self.instruction.seq


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

    def on_branch_writeback(self, instruction, fetched: FetchedInstruction,
                            ex_end_cycle: int) -> None:
        """A fetched branch wrote back: train the predictor and unblock fetch.

        This is the only backend→frontend edge of the pipeline; routing it
        through the frontend object lets a trace replayer substitute its
        own (predictor-free) handling without touching the pipeline.
        """
        self.predictor.update(
            instruction.pc,
            instruction.branch_taken,
            fetched.history_checkpoint,
            fetched.predicted_taken,
        )
        self.branch_resolved(instruction.seq, ex_end_cycle)

    def fetch_into(self, decode_queue, stats, cycle: int) -> None:
        """Run one fetch stage: append this cycle's group to ``decode_queue``
        and account the fetched instructions/branch predictions in ``stats``."""
        group = self.fetch(cycle)
        if not group:
            return
        decode_queue.extend(group)
        branches = 0
        for fetched in group:
            if fetched.instruction.is_branch:
                branches += 1
        stats.branch_predictions += branches
        stats.fetched_instructions += len(group)

    def fetch(self, cycle: int) -> List[FetchedInstruction]:
        """Fetch the group of instructions for ``cycle``.

        Returns an empty list when stalled (I-cache miss refill, blocked on
        an unresolved mispredicted branch) or when the stream is exhausted.
        """
        if self.blocked or cycle <= self._stalled_until:
            return []

        group: List[FetchedInstruction] = []
        current_line: Optional[int] = None
        icache = self.icache
        line_bytes = icache.config.line_bytes
        width = self.width
        while len(group) < width:
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

            if not inst.is_branch:
                group.append(FetchedInstruction(inst, cycle))
                continue
            fetched = self._predict_branch(inst, cycle)
            group.append(fetched)
            if fetched.mispredicted:
                # Everything after a mispredicted branch would be wrong-path
                # work; stop fetching until the branch resolves.
                self.block_on_branch(inst.seq)
                break
            if fetched.predicted_taken or inst.branch_taken:
                # At most one taken branch per cycle: the group ends here.
                break

        return group

    def _predict_branch(self, inst: DynamicInstruction, cycle: int) -> FetchedInstruction:
        predicted_taken, checkpoint = self.predictor.predict(inst.pc)
        btb_hit = self.btb.lookup(inst.pc) is not None
        mispredicted = predicted_taken != inst.branch_taken
        if predicted_taken and inst.branch_taken and not btb_hit:
            # Correct direction but no cached target: the front end redirects
            # from decode instead of fetch, costing a short bubble.
            self._stalled_until = max(self._stalled_until, cycle + self._BTB_MISS_BUBBLE)
        if inst.branch_taken:
            self.btb.insert(inst.pc, inst.branch_target)
        return FetchedInstruction(inst, cycle, predicted_taken, checkpoint, mispredicted)
