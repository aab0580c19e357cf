"""Drive a :class:`~repro.pipeline.processor.Processor` one stage at a time.

The window and the functional units keep no per-instruction methods of
their own, and the ROB and the load/store queue are plain state of the
processor: the pipeline's stages insert, select, wake up, book and
retire in place.  Their unit tests therefore
feed hand-built instructions into the decode queue and run the stages
for chosen cycles, so they check the bookkeeping the simulator runs.
"""

from __future__ import annotations

from repro.execute.issue_queue import IssueQueueEntry
from repro.isa.instruction import DynamicInstruction
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.regfile.monolithic import SingleBankedRegisterFile


def op(seq, op_class=OpClass.INT_ALU, dest=None, sources=(), **fields):
    """A dynamic instruction; ``dest`` and ``sources`` are logical registers."""
    return DynamicInstruction(seq=seq, op_class=op_class, dest=dest,
                              sources=tuple(sources), **fields)


class StagedPipeline:
    """A processor with an empty stream whose stages the test calls."""

    def __init__(self, regfile_factory=SingleBankedRegisterFile, **config) -> None:
        self.processor = Processor([], regfile_factory, ProcessorConfig(**config))
        self.stats = self.processor.stats
        self.window = self.processor.window
        self.rob = self.processor.rob

    def dispatch(self, cycle, *instructions):
        """Decode ``instructions`` by ``cycle`` and run dispatch in ``cycle``.

        Returns the in-flight entries dispatched, oldest first.
        """
        processor = self.processor
        for instruction in instructions:
            processor._decode_queue.append(IssueQueueEntry(instruction, cycle - 1))
        before = len(self.rob)
        processor._dispatch_stage(cycle)
        return list(self.rob)[before:]

    def issue(self, cycle):
        """Start ``cycle`` as ``Processor.run`` does and run the issue stage."""
        processor = self.processor
        processor._int_rf.begin_cycle(cycle)
        processor._fp_rf.begin_cycle(cycle)
        processor.fu_pool.begin_cycle(cycle)
        processor._issue_stage(cycle)

    def step(self, cycle, *instructions):
        """Run ``cycle`` as ``Processor.run`` does: commit, write-back,
        issue, then dispatch of ``instructions`` (the test is the fetch).

        Returns the in-flight entries dispatched, oldest first.
        """
        processor = self.processor
        processor._int_rf.begin_cycle(cycle)
        processor._fp_rf.begin_cycle(cycle)
        processor.fu_pool.begin_cycle(cycle)
        if self.rob and self.rob[0].completed:
            processor._commit_stage(cycle)
        processor._writeback_stage(cycle)
        processor._issue_stage(cycle)
        return self.dispatch(cycle, *instructions)


class CommitRecorder:
    """A commit observer that keeps every committed entry and its cycle."""

    def __init__(self) -> None:
        self.commits = []

    def on_commit(self, entry, cycle) -> None:
        self.commits.append((entry, cycle))

    def final_digest(self) -> str:
        return ""
