"""Fault injection for validating the validator (test use only).

A differential checker that has never been seen to fail proves nothing,
so the subsystem ships a deliberate way to break one architecture's
observed commit stream: :class:`InjectedFault` names an architecture and
a commit index, and :class:`FaultInjectingObserver` corrupts the
instruction *as observed* at that index — the simulation itself is
untouched, but the checksum, the commit log and the committed
architectural state all absorb the corruption, exactly as a real
misbehaving pipeline would feed them.  The differential runner must then
report a divergence whose ``first_divergent_commit`` equals the injected
index.

Nothing in production paths constructs these; they exist for the test
suite and for ``python -m repro.validate --inject-fault`` self-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ValidationError
from repro.isa.instruction import (
    NUM_LOGICAL_PER_CLASS,
    DynamicInstruction,
    LogicalRegister,
    RegisterClass,
)
from repro.validate.observer import DEFAULT_CHECKPOINT_INTERVAL, CommitObserver


@dataclass(frozen=True)
class InjectedFault:
    """Corrupt the observed commit at ``commit_index`` on one architecture."""

    architecture: str
    commit_index: int

    def __post_init__(self) -> None:
        if self.commit_index < 0:
            raise ValidationError("fault commit_index cannot be negative")

    @classmethod
    def parse(cls, spec: str) -> "InjectedFault":
        """Parse an ``ARCHITECTURE:INDEX`` command-line specification."""
        architecture, separator, index_text = spec.rpartition(":")
        if not separator or not architecture:
            raise ValidationError(
                f"bad fault spec {spec!r}; expected ARCHITECTURE:COMMIT_INDEX"
            )
        try:
            index = int(index_text)
        except ValueError as exc:
            raise ValidationError(
                f"bad fault commit index {index_text!r} in {spec!r}"
            ) from exc
        return cls(architecture=architecture, commit_index=index)


def corrupt_instruction(instruction: DynamicInstruction) -> DynamicInstruction:
    """A copy of ``instruction`` with its destination register perturbed."""
    dest = instruction.dest
    if dest is not None:
        wrong = LogicalRegister(dest.reg_class, (dest.index + 1) % NUM_LOGICAL_PER_CLASS)
    else:
        wrong = LogicalRegister(RegisterClass.INT, 7)
    return replace(instruction, dest=wrong)


class FaultInjectingObserver(CommitObserver):
    """A :class:`CommitObserver` that mis-records one commit."""

    def __init__(
        self,
        fault: InjectedFault,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        keep_log: bool = True,
    ) -> None:
        super().__init__(checkpoint_interval=checkpoint_interval, keep_log=keep_log)
        self.fault = fault
        #: Whether the faulted commit index was actually reached; a fault
        #: that never fires must not let a self-test pass vacuously.
        self.triggered = False

    def on_commit(self, entry, cycle: int) -> None:
        instruction = entry.instruction
        if self.accumulator.count == self.fault.commit_index:
            instruction = corrupt_instruction(instruction)
            self.triggered = True
        self.accumulator.record(instruction)
