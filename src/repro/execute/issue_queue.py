"""Issue queue (instruction window) with wakeup/select.

Instructions wait here after dispatch until their source operands are
available and the structural resources they need (functional unit,
register-file read ports, a present upper-level copy for a register file
cache) can be secured.  The queue keeps, per physical register, the list
of waiting consumers so that

* producers finishing execution wake their dependents, and
* the register-file caching policies ("ready caching") and the
  prefetch-first-pair scheme can ask which consumers of a value exist in
  the window and whether they are ready.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.execute.bypass import BypassNetwork
from repro.execute.scoreboard import ValueScoreboard, ValueState
from repro.isa.instruction import DynamicInstruction
from repro.regfile.base import OperandAccess
from repro.rename.renamer import PhysicalRegister


class IssueQueueEntry:
    """The in-flight record of one instruction, from rename to commit.

    Dispatch builds one per instruction: the renamer fills its physical
    registers, the scoreboard its destination state and the issue window
    its operand accesses.  The same object then waits in the issue window
    until it is selected and sits in the reorder buffer until it commits,
    so issue, write-back and commit all reach it without a lookup.
    """

    __slots__ = (
        "instruction", "seq", "fetched", "sources", "dest", "previous_dest",
        "dest_state", "pending", "earliest_ex_cycle", "issued",
        "accesses", "int_accesses", "fp_accesses",
        "completed", "complete_cycle",
    )

    def __init__(
        self,
        instruction: DynamicInstruction,
        fetched: Optional[object] = None,
        sources: Tuple[PhysicalRegister, ...] = (),
        dest: Optional[PhysicalRegister] = None,
        previous_dest: Optional[PhysicalRegister] = None,
    ) -> None:
        self.instruction = instruction
        #: Cached copy of ``instruction.seq``: the select loop reads it for
        #: every window entry every cycle.
        self.seq: int = instruction.seq
        #: The front-end record of this instruction (``None`` off the
        #: pipeline).
        self.fetched = fetched
        #: Renamed registers (set by :meth:`~repro.rename.renamer.Renamer.rename`);
        #: ``previous_dest`` is released when this instruction commits.
        self.sources = sources
        self.dest = dest
        self.previous_dest = previous_dest
        #: Scoreboard state of ``dest``, resolved once at dispatch.
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
        #: select attempt allocates nothing.  The scoreboard state an
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
    """Bounded out-of-order issue window."""

    def __init__(
        self,
        capacity: int,
        scoreboard: ValueScoreboard,
        bypass: BypassNetwork,
        track_consumers: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("issue queue capacity must be positive")
        self.capacity = capacity
        self.scoreboard = scoreboard
        self.bypass = bypass
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
        self._entries: Dict[int, IssueQueueEntry] = {}
        # Waiter/consumer indexes keyed by ``PhysicalRegister.uid``.
        self._waiters: Dict[int, List[IssueQueueEntry]] = {}
        self._consumers: Dict[int, List[IssueQueueEntry]] = {}
        # Hot-path caches (all fixed after construction): the scoreboard's
        # state dictionary is never rebound, and the bypass timing gives a
        # constant producer-end -> consumer-execute offset.
        self._read_stages = bypass.read_stages
        self._sb_states = scoreboard._states
        self._consumer_offset = bypass.earliest_consumer_execute(0)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def occupancy(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # dispatch / wakeup
    # ------------------------------------------------------------------

    def dispatch(self, entry: IssueQueueEntry, cycle: int) -> IssueQueueEntry:
        """Insert a renamed in-flight record into the window.

        Builds the entry's operand accesses and registers it with the
        waiter (and consumer) index of every source.
        """
        entries = self._entries
        if len(entries) >= self.capacity:
            raise SimulationError("issue queue overflow")
        # An instruction cannot be selected in the cycle it is dispatched;
        # the earliest issue is the next cycle, hence the earliest execute
        # is ``dispatch + 1 + read_stages``.
        earliest = cycle + 1 + self._read_stages
        sources = entry.sources
        if sources:
            consumers = self._consumers if self.track_consumers else None
            waiters = self._waiters
            sb_states = self._sb_states
            offset = self._consumer_offset
            accesses = []
            int_count = 0
            for register in sources:
                uid = register.uid
                if consumers is not None:
                    consumer_list = consumers.get(uid)
                    if consumer_list is None:
                        consumers[uid] = [entry]
                    else:
                        consumer_list.append(entry)
                state = sb_states.get(uid)
                if state is None:
                    raise SimulationError(f"no scoreboard state for {register}")
                access = OperandAccess(register, state)
                accesses.append(access)
                if access.is_int:
                    int_count += 1
                ex_end = state.ex_end_cycle
                if ex_end is not None:
                    if ex_end + offset > earliest:
                        earliest = ex_end + offset
                else:
                    if entry.pending is None:
                        entry.pending = {uid}
                    else:
                        entry.pending.add(uid)
                    waiter_list = waiters.get(uid)
                    if waiter_list is None:
                        waiters[uid] = [entry]
                    else:
                        waiter_list.append(entry)
            entry.accesses = accesses
            # Most instructions read one register file only; they share
            # the source-order list instead of copying it.
            if int_count == len(accesses):
                entry.int_accesses = accesses
            elif not int_count:
                entry.fp_accesses = accesses
            else:
                entry.int_accesses = [a for a in accesses if a.is_int]
                entry.fp_accesses = [a for a in accesses if not a.is_int]
        entry.earliest_ex_cycle = earliest
        entries[entry.seq] = entry
        return entry

    def wakeup(self, register: PhysicalRegister, ex_end_cycle: int) -> List[IssueQueueEntry]:
        """Notify waiting consumers that ``register``'s producer finishes at
        ``ex_end_cycle``.  Returns the entries that became data-ready.

        The register's whole waiter list is consumed here, which is why
        :meth:`mark_issued` never has waiter lists to clean: an entry is
        selectable only once every list it waited on has been popped.
        """
        became_ready: List[IssueQueueEntry] = []
        uid = register.uid
        waiters = self._waiters.pop(uid, None)
        if waiters is None:
            return became_ready
        availability = ex_end_cycle + self._consumer_offset
        for entry in waiters:
            if entry.issued:
                continue
            pending = entry.pending
            if pending is not None:
                pending.discard(uid)
            if availability > entry.earliest_ex_cycle:
                entry.earliest_ex_cycle = availability
            if not pending:
                became_ready.append(entry)
        return became_ready

    # ------------------------------------------------------------------
    # select
    # ------------------------------------------------------------------

    _NO_ENTRIES: List[IssueQueueEntry] = []  # shared; callers must not mutate

    def schedulable(self, cycle: int) -> List[IssueQueueEntry]:
        """Entries whose operands allow execution to start at
        ``cycle + read_stages``, oldest first."""
        entries = self._entries
        if not entries:
            return self._NO_ENTRIES
        ex_start = cycle + self._read_stages
        # Oldest-first without sorting: insertion order is program order
        # (see ``_entries``), and issued entries are removed on selection,
        # so every resident entry has ``issued == False``.
        return [
            entry
            for entry in entries.values()
            if not entry.pending and entry.earliest_ex_cycle <= ex_start
        ]

    def mark_issued(self, entry: IssueQueueEntry) -> None:
        """Remove an entry from the window once it has been selected."""
        if entry.issued:
            raise SimulationError(f"instruction {entry.seq} issued twice")
        entry.issued = True
        self._entries.pop(entry.seq, None)
        if self.track_consumers:
            consumers = self._consumers
            for register in entry.sources:
                uid = register.uid
                waiting = consumers.get(uid)
                if waiting is None:
                    continue
                if entry in waiting:
                    waiting.remove(entry)
                if not waiting:
                    del consumers[uid]

    def defer(self, entry: IssueQueueEntry, until_cycle: int) -> None:
        """Delay an entry (e.g. waiting for an upper-level fill)."""
        earliest = until_cycle + self._read_stages
        if earliest > entry.earliest_ex_cycle:
            entry.earliest_ex_cycle = earliest

    # ------------------------------------------------------------------
    # query used by the caching and prefetch policies
    # ------------------------------------------------------------------

    def waiting_consumers_of(self, register: PhysicalRegister) -> List[IssueQueueEntry]:
        """Not-yet-issued window entries that source ``register``."""
        return [e for e in self._consumers.get(register.uid, []) if not e.issued]
