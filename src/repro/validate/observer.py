"""Commit-stream observation.

The differential validation subsystem needs to see *what* the pipeline
committed, independently of *when* it committed it.  A
:class:`CommitObserver` attaches to a
:class:`~repro.pipeline.processor.Processor` (via the
``commit_observer`` constructor argument) and records, for every
committed instruction, a canonical **commit record**; the records feed a
rolling SHA-256 checksum, periodic checkpoints (for cheap divergence
localization) and the committed architectural register state.

The same accumulator is used by the pipeline-independent
:class:`~repro.validate.oracle.ArchitecturalOracle`, so a pipeline run
and the oracle produce byte-comparable summaries.  The observer is
strictly read-only: attaching it must not change a single simulation
statistic (``tests/test_golden_stats.py`` plus
``tests/test_validate_oracle_observer.py`` enforce this).

The simulator is timing-only — dynamic instructions carry no values — so
"architectural state" is *dataflow-symbolic*: each logical register maps
to the sequence number of the youngest committed instruction that wrote
it (or -1 for the architected initial value).  That is exactly the
architectural contract a trace-driven register-file study must preserve:
every architecture must commit the same instructions, in the same order,
leaving every logical register bound to the same producer.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import DynamicInstruction, LogicalRegister

#: Default number of commits between two rolling-checksum checkpoints.
DEFAULT_CHECKPOINT_INTERVAL = 256


def commit_record(instruction: DynamicInstruction) -> str:
    """Canonical one-line description of one committed instruction.

    The record captures everything architecturally visible in a
    trace-driven model: position in the stream, operation class,
    destination and source logical registers, the effective memory
    address and the branch outcome.  Timing (cycles, ports, bypass
    sources) is deliberately absent — two register-file architectures
    may disagree on timing but never on these fields.
    """
    dest = instruction.dest
    branch = ""
    if instruction.is_branch:
        branch = "T" if instruction.branch_taken else "N"
    return "|".join(
        (
            str(instruction.seq),
            instruction.op_class.value,
            "" if dest is None else str(dest),
            ",".join(str(source) for source in instruction.sources),
            "" if instruction.mem_address is None else str(instruction.mem_address),
            branch,
        )
    )


class CommitStreamAccumulator:
    """Rolling summary of a committed instruction sequence.

    Tracks the commit count, a rolling SHA-256 checksum over the
    canonical commit records, checkpoint digests every
    ``checkpoint_interval`` commits and the symbolic architectural
    register state.  ``keep_log`` retains the full record list, which the
    differential runner uses to pinpoint the exact first divergent
    commit; validation scenarios are small, so the memory cost is
    negligible.
    """

    def __init__(
        self,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        keep_log: bool = True,
    ) -> None:
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        self.checkpoint_interval = checkpoint_interval
        self.count = 0
        self.checkpoints: List[Tuple[int, str]] = []
        self.committed_state: Dict[LogicalRegister, int] = {}
        self.log: Optional[List[str]] = [] if keep_log else None
        self._hash = hashlib.sha256()

    def record(self, instruction: DynamicInstruction) -> None:
        """Fold one committed instruction into the running summary."""
        line = commit_record(instruction)
        self._hash.update(line.encode("utf-8"))
        self._hash.update(b"\n")
        if self.log is not None:
            self.log.append(line)
        if instruction.dest is not None:
            self.committed_state[instruction.dest] = instruction.seq
        self.count += 1
        if self.count % self.checkpoint_interval == 0:
            self.checkpoints.append((self.count, self._hash.hexdigest()[:16]))

    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Hex digest over every record folded in so far."""
        return self._hash.hexdigest()

    def state_snapshot(self) -> Dict[str, int]:
        """The committed architectural state with stringified registers."""
        return {
            str(register): seq
            for register, seq in sorted(
                self.committed_state.items(),
                key=lambda item: (item[0].reg_class.value, item[0].index),
            )
        }

    def snapshot(self) -> dict:
        """JSON-serializable summary used by the differential runner."""
        return {
            "count": self.count,
            "digest": self.digest(),
            "checkpoints": [list(checkpoint) for checkpoint in self.checkpoints],
            "state": self.state_snapshot(),
        }


class CommitObserver:
    """Processor-side commit hook.

    Pass an instance as the ``commit_observer`` argument of
    :class:`~repro.pipeline.processor.Processor`; the commit stage calls
    :meth:`on_commit` once per committed instruction, in commit order.
    """

    def __init__(
        self,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        keep_log: bool = True,
    ) -> None:
        self.accumulator = CommitStreamAccumulator(
            checkpoint_interval=checkpoint_interval, keep_log=keep_log
        )

    def on_commit(self, entry, cycle: int) -> None:
        """Record one committed instruction (``entry`` is the in-flight
        :class:`~repro.execute.issue_queue.IssueQueueEntry` leaving the ROB)."""
        self.accumulator.record(entry.instruction)

    def final_digest(self) -> str:
        """Checksum over the full commit stream (surfaced via
        ``SimulationStats.commit_checksum``)."""
        return self.accumulator.digest()

    def snapshot(self) -> dict:
        return self.accumulator.snapshot()
