"""Issue queue (instruction window) and the per-instruction in-flight record.

Instructions wait in the window after dispatch until their source
operands are available and the structural resources they need
(functional unit, register-file read ports, a present upper-level copy
for a register file cache) can be secured.  The window keeps, per
physical register, the list of the consumers waiting for its producer
to issue, so that

* producers issuing wake their dependents, and
* the prefetch-first-pair scheme finds the first of them (the list the
  wakeup just popped is exactly the producer's unissued consumers, in
  program order).

Only the "ready caching" policy also asks, at write-back, which window
entries source a value; for it alone the window keeps a per-register
consumer index.

The window also holds the timing state of every live physical
register's value (:attr:`IssueQueue.values`), which the stages and the
register-file policies read, and which doubles as each consumer's
operand access.  Insertion, wakeup and select run once or more per
simulated instruction, so the pipeline's dispatch and issue stages
(:mod:`repro.pipeline.processor`) do them in place on the window's
dictionaries rather than through a method call each.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.execute.scoreboard import ValueState
from repro.isa.instruction import DynamicInstruction
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

    The constructor sets only the fields read before a later stage
    writes them; every other slot is written by the stage that owns it
    before anything reads it:

    * ``predicted_taken`` and ``history_checkpoint``: the live frontend,
      for a branch (the predictor trains on them at write-back);
    * ``sources``, ``dest`` and ``previous_dest``: the renamer
      (``previous_dest`` is released when this instruction commits);
    * ``dest_state`` (the value state of ``dest``, only when there is
      one), ``pending`` (the number of source producers that have not
      issued; each wakeup subtracts one), ``earliest_ex_cycle`` (the
      earliest cycle the instruction could execute given its operands;
      structural hazards can push the real execution later) and the
      operand accesses: dispatch;
    * ``complete_cycle``: write-back.

    The operand accesses are the sources' value states, in source order
    (``accesses``), and the same states split by register file
    (``int_accesses``, ``fp_accesses``; an entry that reads one file only
    shares the source-order list).  Issue attempts plan each in place
    and hand the per-class lists to the port checks, so a select attempt
    allocates nothing.  A source register cannot be released while a
    consumer still waits (its releaser commits after the consumer), so
    the states stay live for as long as the entry needs them.
    """

    __slots__ = (
        "instruction", "seq", "fetch_cycle", "predicted_taken",
        "history_checkpoint", "mispredicted",
        "sources", "dest", "previous_dest",
        "dest_state", "pending", "earliest_ex_cycle", "issued",
        "accesses", "int_accesses", "fp_accesses",
        "completed", "complete_cycle",
    )

    def __init__(self, instruction: DynamicInstruction, fetch_cycle: int = 0) -> None:
        self.instruction = instruction
        #: Cached copy of ``instruction.seq``: the select loop reads it for
        #: every window entry every cycle.
        self.seq: int = instruction.seq
        #: The cycle the frontend delivered this instruction; it is
        #: decoded in that cycle and may dispatch from the next one.
        self.fetch_cycle = fetch_cycle
        #: Whether this is a mispredicted branch, set by the frontend that
        #: fetched it; one blocks fetch until it resolves.
        self.mispredicted = False
        self.issued = False
        #: Set at write-back; the entry may commit from the next cycle.
        self.completed = False


class IssueQueue:
    """Bounded out-of-order issue window.

    The window is the state the pipeline's dispatch and issue stages work
    on in place — entries, waiter lists, consumer lists and value states
    — plus the consumer query of the ready-caching policy.
    """

    def __init__(self, capacity: int, track_consumers: bool = True) -> None:
        if capacity <= 0:
            raise ConfigurationError("issue queue capacity must be positive")
        self.capacity = capacity
        #: Whether the per-register consumer index is maintained.  Only
        #: the ready-caching policy queries it (:meth:`waiting_consumers_of`);
        #: the pipeline disables it for architectures that never ask (see
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
        #: register's producer to issue, in program order.  Issuing the
        #: producer pops the whole list, so an entry is selectable only
        #: once every list it waited on is gone.
        self.waiters: Dict[int, List[IssueQueueEntry]] = {}
        #: ``PhysicalRegister.uid`` -> the window entries that source it,
        #: in program order (maintained only with ``track_consumers``).
        self.consumers: Dict[int, List[IssueQueueEntry]] = {}
        #: ``PhysicalRegister.uid`` -> the timing state of the value of
        #: every live physical register: seeded for the architected
        #: mappings, created when dispatch renames a destination and
        #: dropped when commit frees the register.  Keyed by the
        #: register's integer ``uid``, which hashes at C speed.
        self.values: Dict[int, ValueState] = {}

    def waiting_consumers_of(self, register: PhysicalRegister) -> Sequence[IssueQueueEntry]:
        """The window entries that source ``register``, oldest first.

        The issue stage removes an entry from these lists when it issues,
        so every one is unissued.  The list is the window's own; callers
        only read it.
        """
        return self.consumers.get(register.uid, ())
