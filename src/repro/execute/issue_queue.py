"""Issue queue (instruction window) and the per-instruction in-flight record.

Instructions wait in the window after dispatch until their source
operands are available and the structural resources they need
(functional unit, register-file read ports, a present upper-level copy
for a register file cache) can be secured.  The window keeps, per
physical register, the list of waiting consumers so that

* producers issuing wake their dependents, and
* the register-file caching policies ("ready caching") and the
  prefetch-first-pair scheme can ask which consumers of a value exist in
  the window and whether they are ready.

The window also holds the timing state of every live physical
register's value (:attr:`IssueQueue.values`), which the stages and the
register-file policies read.  Insertion, wakeup and select run once or
more per simulated instruction, so the pipeline's dispatch and issue
stages (:mod:`repro.pipeline.processor`) do them in place on the
window's dictionaries rather than through a method call each.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.execute.scoreboard import ValueState
from repro.isa.instruction import DynamicInstruction
from repro.regfile.base import OperandAccess
from repro.rename.renamer import PhysicalRegister


class IssueQueueEntry:
    """The in-flight record of one instruction, from fetch to commit.

    The frontend builds one per fetched instruction and appends it to the
    decode queue, with the fetch cycle and, for a branch, the prediction
    state.  The dispatch stage renames it in place (the renamer fills its
    physical registers) and adds its destination state and its operand
    accesses.  The same object then waits in the issue window until it
    is selected and sits in the reorder buffer until it commits, so
    decode, issue, write-back and commit all reach it without a lookup.
    """

    __slots__ = (
        "instruction", "seq", "fetch_cycle", "predicted_taken",
        "history_checkpoint", "mispredicted",
        "sources", "dest", "previous_dest",
        "dest_state", "pending", "earliest_ex_cycle", "issued",
        "accesses", "int_accesses", "fp_accesses",
        "completed", "complete_cycle",
    )

    def __init__(
        self,
        instruction: DynamicInstruction,
        fetch_cycle: int = 0,
        sources: Tuple[PhysicalRegister, ...] = (),
        dest: Optional[PhysicalRegister] = None,
        previous_dest: Optional[PhysicalRegister] = None,
    ) -> None:
        self.instruction = instruction
        #: Cached copy of ``instruction.seq``: the select loop reads it for
        #: every window entry every cycle.
        self.seq: int = instruction.seq
        #: The cycle the frontend delivered this instruction; it is
        #: decoded in that cycle and may dispatch from the next one.
        self.fetch_cycle = fetch_cycle
        #: Prediction state of a branch, set by the frontend that fetched
        #: it: the predicted direction and the history checkpoint train
        #: the predictor at write-back, and a mispredicted branch blocks
        #: fetch until it resolves.  Every other instruction keeps the
        #: defaults.
        self.predicted_taken = False
        self.history_checkpoint = 0
        self.mispredicted = False
        #: Renamed registers (set by :meth:`~repro.rename.renamer.Renamer.rename`);
        #: ``previous_dest`` is released when this instruction commits.
        self.sources = sources
        self.dest = dest
        self.previous_dest = previous_dest
        #: Value state of ``dest``, created at dispatch.
        self.dest_state: Optional[ValueState] = None
        #: ``uid``s of source registers whose producer completion time is
        #: not yet known.  ``None`` until the first pending source appears
        #: — falsy either way for the select loop, and it skips a set
        #: allocation for the many entries that dispatch with all operands
        #: already produced.
        self.pending: Optional[set[int]] = None
        #: Earliest cycle this instruction could start executing,
        #: considering operand availability through bypass/register file
        #: (structural hazards can push the real execution later).
        self.earliest_ex_cycle = 0
        self.issued = False
        #: One :class:`OperandAccess` per source, in source order, plus the
        #: same accesses split by register file; all built once at
        #: dispatch.  Issue attempts re-plan each access in place every
        #: retry and hand the per-class lists to the port checks, so a
        #: select attempt allocates nothing.  The value state an
        #: access holds is stable from allocation to release, and a source
        #: register cannot be released while a consumer still waits (its
        #: releaser commits after the consumer).
        self.accesses: Sequence[OperandAccess] = ()
        self.int_accesses: Sequence[OperandAccess] = ()
        self.fp_accesses: Sequence[OperandAccess] = ()
        #: Set at write-back; the entry may commit from the next cycle.
        self.completed = False
        self.complete_cycle: Optional[int] = None


class IssueQueue:
    """Bounded out-of-order issue window.

    The window is the state the pipeline's dispatch and issue stages work
    on in place — entries, waiter lists, consumer lists and value states
    — plus the consumer query of the caching and prefetch policies.
    """

    def __init__(self, capacity: int, track_consumers: bool = True) -> None:
        if capacity <= 0:
            raise ConfigurationError("issue queue capacity must be positive")
        self.capacity = capacity
        #: Whether the per-register consumer index is maintained.  Only
        #: the register-file-cache policies query it
        #: (:meth:`waiting_consumers_of`); the pipeline disables it for
        #: architectures that never ask (see
        #: ``RegisterFileModel.needs_consumer_index``), which removes one
        #: list append per source at dispatch and one list scan per
        #: source at issue.
        self.track_consumers = track_consumers
        #: Window entries keyed by sequence number.  Dispatch happens in
        #: program order and Python dictionaries preserve insertion order,
        #: so iterating the values is oldest-first *by construction* —
        #: the select loop relies on this instead of sorting every cycle.
        #: The dictionary object is never rebound (the pipeline hot loop
        #: holds a direct reference to it).
        self.entries: Dict[int, IssueQueueEntry] = {}
        #: ``PhysicalRegister.uid`` -> the entries waiting for that
        #: register's producer to issue.  Issuing the producer pops the
        #: whole list, so an entry is selectable only once every list it
        #: waited on is gone.
        self.waiters: Dict[int, List[IssueQueueEntry]] = {}
        #: ``PhysicalRegister.uid`` -> the window entries that source it
        #: (maintained only with ``track_consumers``).
        self.consumers: Dict[int, List[IssueQueueEntry]] = {}
        #: ``PhysicalRegister.uid`` -> the timing state of the value of
        #: every live physical register: seeded for the architected
        #: mappings, created when dispatch renames a destination and
        #: dropped when commit frees the register.  Keyed by the
        #: register's integer ``uid``, which hashes at C speed.
        self.values: Dict[int, ValueState] = {}

    def waiting_consumers_of(self, register: PhysicalRegister) -> List[IssueQueueEntry]:
        """Not-yet-issued window entries that source ``register``."""
        return [e for e in self.consumers.get(register.uid, []) if not e.issued]
