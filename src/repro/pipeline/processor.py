"""Cycle-level model of a dynamically scheduled superscalar processor.

The pipeline follows the paper's 6-stage structure (fetch, decode/rename,
read, execute, write-back, commit); the read stage takes ``read_stages``
cycles as dictated by the register file architecture under study, and
dependent-instruction timing honours the architecture's
``consumer_offset``, which its number of bypass levels sets.

The processor is *stream driven*: it consumes a dynamic instruction
stream (correct path only) and models timing.  Branch mispredictions
therefore stall fetch from the mispredicted branch until it resolves,
charging the full front-end refill penalty, which is the standard
trace-driven modelling approach.

Implementation note: ``run`` is the hottest loop of the repository — the
whole experiment harness is bounded by it — so the stage methods trade a
little indirection for speed: one in-flight record
(:class:`~repro.execute.issue_queue.IssueQueueEntry`) per instruction,
from fetch to commit — the frontend builds it with the fetch cycle and
the branch prediction state, the renamer fills its physical registers,
dispatch adds its operand accesses, and the same object sits in
the decode queue, the window and the ROB and is what a completion and
the commit observer carry, so no stage looks an instruction up by
sequence number or allocates a second record; one record per live
value, too: a source's operand access *is* its
:class:`~repro.execute.scoreboard.ValueState`, on which each issue
attempt writes its read plan; the select loop is one flat loop with its
collaborators bound once per cycle, and a select attempt allocates
nothing; and stages are skipped outright on the cycles where their
input queues are provably empty.

The back-end state has one owner per piece, all plain public
attributes: the processor holds the reorder buffer (``rob``), the
load/store queue (``lsq_occupancy`` and the store index ``stores_at``)
and the bypass timing (``consumer_offset``); the window holds its
entries, waiter and consumer lists and the value state of every live
physical register (``values``); the renamer holds the map table and the
free lists.  The stages do the per-instruction bookkeeping on that state
in place: dispatch renames and inserts into the window (operand
accesses, waiter lists and their ``pending`` count, and the consumer
lists that only ready caching reads), the ROB (with its program-order
check) and the load/store queue, stalling when any of them or the free
list is full; issue selects, removes the entry from the window ("issued
twice"), wakes its waiting consumers, hands their list to a prefetching
register file's ``on_issue`` and books the functional unit;
commit pops the ROB head, releases the replaced mapping and drops a
committed store from the store index.  The same state is what
:meth:`Processor.functional_warmup` warms before a sampled window.  The
register files count the operand reads they deliver
(:meth:`~repro.regfile.base.RegisterFileModel.claim_reads`), and
``SimulationStats.operands_from_*`` is their sum.  Beyond that, the
per-instruction path makes no Python call that nobody wrote on
purpose: state read every cycle is a plain attribute, not a property
(the frontend's ``exhausted`` and ``blocked``, the register files' and
FU pool's ``idle``, which lets a cycle skip their ``begin_cycle``);
one-line hops are inlined where they run per attempt (deferring an
entry, the oldest-entry check, ``FunctionalUnitPool.can_issue``
without busy dividers, a free-list allocation); register-file
hooks that are no-ops on a model (``on_issue`` unless the model
sets ``prefetches_on_issue``, ``release``) are resolved once per
processor; and physical registers, interned by the
renamer, are compared by identity.  Hot functions read enum members
through module-level constants bound once (``_LOAD``), never as
``OpClass.LOAD``, an attribute read CPython 3.11 does not specialize
(``tests/test_hot_path_enum_reads.py`` lists the functions), and
``tests/test_hot_path_calls.py`` caps the Python-level calls per
committed instruction.  Every change here is guarded by the
golden-stats parity tests (``tests/test_golden_stats.py``):
optimizations must leave ``SimulationStats`` bit-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.execute.functional_units import UNPIPELINED_CLASSES, FunctionalUnitPool
from repro.execute.issue_queue import IssueQueue, IssueQueueEntry
from repro.execute.scoreboard import ValueState
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import (
    FP_LOGICAL_REGISTERS,
    INT_LOGICAL_REGISTERS,
    DynamicInstruction,
    RegisterClass,
)
from repro.isa.opcodes import OpClass
from repro.memsys.cache import CacheModel
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import OccupancySample, SimulationStats
from repro.regfile.base import OperandSource, RegisterFileModel
from repro.rename.renamer import PhysicalRegister, Renamer

# Enum members bound once.  The enum metaclass defines ``__getattr__``
# (CPython 3.11), so a read such as ``OpClass.LOAD`` takes a slow
# attribute path the specializing interpreter never specializes; a
# module global read is several times cheaper.
_FILE = OperandSource.FILE
_MISS = OperandSource.MISS
_NOT_READY = OperandSource.NOT_READY
_INT = RegisterClass.INT
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


class Processor:
    """One simulated processor instance (one workload, one architecture)."""

    def __init__(
        self,
        workload: Optional[Iterable[DynamicInstruction]],
        regfile_factory: Callable[[], RegisterFileModel],
        config: Optional[ProcessorConfig] = None,
        benchmark_name: str = "workload",
        commit_observer=None,
        frontend=None,
    ) -> None:
        self.config = config or ProcessorConfig()
        self.benchmark_name = benchmark_name
        # Optional commit-stream observer (see repro.validate.observer).
        # It is read-only — attaching one must leave every statistic
        # bit-identical — and costs one None check per commit when absent.
        self.commit_observer = commit_observer

        self._regfiles: Dict[RegisterClass, RegisterFileModel] = {
            RegisterClass.INT: regfile_factory(),
            RegisterClass.FP: regfile_factory(),
        }
        int_rf = self._regfiles[RegisterClass.INT]
        fp_rf = self._regfiles[RegisterClass.FP]
        if ((int_rf.read_stages, int_rf.consumer_offset)
                != (fp_rf.read_stages, fp_rf.consumer_offset)):
            raise ConfigurationError(
                "integer and FP register files must share the same timing"
            )
        self._int_rf = int_rf
        self._fp_rf = fp_rf
        # The issue hook runs only for a model that prefetches on issue
        # (a prefetch-first-pair register file cache), and the release
        # hook only where a model overrides it; resolve both once.
        self._issue_hooks = int_rf.prefetches_on_issue or fp_rf.prefetches_on_issue
        self._release_hooks = any(
            type(rf).release is not RegisterFileModel.release for rf in (int_rf, fp_rf)
        )
        self.read_stages = int_rf.read_stages
        #: Cycles from the end of a producer's execution to the earliest
        #: execution of a dependent instruction, as the register file
        #: declares it.  The contract: dispatch and wakeup hold every
        #: consumer until ``ex_end + consumer_offset``, and no other code
        #: gates it, so a model plans an operand only for a consumer that
        #: may execute (``RegisterFileModel.plan_operand_read``).
        self.consumer_offset = int_rf.consumer_offset

        self.renamer = Renamer(self.config.num_int_physical, self.config.num_fp_physical)
        self.window = IssueQueue(
            self.config.instruction_window,
            track_consumers=int_rf.needs_consumer_index or fp_rf.needs_consumer_index,
        )
        self._seed_architected_registers()
        #: The reorder buffer, oldest first: the dispatch stage appends
        #: each in-flight record in program order and the commit stage
        #: pops completed ones from the head.  Never rebound (the run
        #: loop holds a direct reference).
        self.rob: deque[IssueQueueEntry] = deque()
        # The load/store queue (Table 1: 64 entries with store→load
        # forwarding).  The stream gives every load and store its
        # address, so a store's address is known at dispatch and no load
        # waits for an older one; the queue is its occupancy, for the
        # dispatch stall, and the queued stores by address, for
        # forwarding (see :meth:`forwarding_store`).
        #: Loads and stores dispatched and not yet committed.
        self.lsq_occupancy = 0
        #: Address -> ascending seqs of the queued stores to it.  Stores
        #: enter and commit in program order, so each list is appended
        #: at the tail and popped at the head.
        self.stores_at: Dict[int, List[int]] = {}
        self.fu_pool = FunctionalUnitPool(self.config.functional_units)

        self.dcache = CacheModel(self.config.dcache, name="dcache")
        if frontend is not None:
            # The frontend-source seam: anything implementing the protocol
            # of :class:`~repro.frontend.fetch.FetchUnit` (plain ``exhausted``
            # and ``blocked`` attributes, ``fetch_into``,
            # ``on_branch_writeback``, ``icache_hits`` / ``icache_misses``)
            # can drive the pipeline — notably
            # :class:`repro.trace.TraceReplayer`, which replays a recorded
            # decoded stream in place of live fetch.
            self.icache = None
            self.predictor = None
            self.btb = None
            self.fetch_unit = frontend
        else:
            if workload is None:
                raise ConfigurationError(
                    "a workload stream is required unless a frontend is given"
                )
            self.icache = CacheModel(self.config.icache, name="icache")
            self.predictor = GSharePredictor(self.config.branch_predictor_entries)
            self.btb = BranchTargetBuffer(self.config.btb_entries)
            self.fetch_unit = FetchUnit(
                iter(workload), self.icache, self.predictor, self.btb,
                width=self.config.fetch_width,
            )

        #: Fetched, not yet dispatched in-flight records, oldest first.
        self._decode_queue: deque[IssueQueueEntry] = deque()
        # Write-back cycle (``ex_end + 1``) -> the in-flight records that
        # complete then.
        self._completions: Dict[int, List[IssueQueueEntry]] = {}

        self.stats = SimulationStats(
            benchmark=benchmark_name,
            architecture=int_rf.describe(),
        )

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------

    def _seed_architected_registers(self) -> None:
        """The initial logical→physical mappings hold architected values,
        readable from the register file from cycle 0."""
        values = self.window.values
        for logical in INT_LOGICAL_REGISTERS + FP_LOGICAL_REGISTERS:
            physical = self.renamer.current_mapping(logical)
            values[physical.uid] = ValueState(
                physical, producer_seq=-1, ex_end_cycle=-1, rf_ready_cycle=0,
                written_back=True,
            )

    def functional_warmup(self, instructions) -> None:
        """Warm the value-tracking state of this (fresh) processor.

        Replays ``instructions`` through rename, the window's value
        states, the register-file models and the data cache — one
        instruction per cycle at negative cycle numbers, with the
        previous mapping of each destination released at once (so any
        physical-register budget that admits the logical set suffices).
        No pipeline timing runs and no statistic of the subsequent run
        is touched: the data cache's hit/miss counters are zeroed
        afterwards and the value-read distribution is deliberately not
        updated on release.  The sampling engine runs it before each
        detailed window.
        """
        if not instructions:
            return
        renamer = self.renamer
        int_free = renamer.int_free
        fp_free = renamer.fp_free
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        window = self.window
        values = window.values
        dcache = self.dcache
        cycle = -len(instructions)
        for instruction in instructions:
            int_rf.begin_cycle(cycle)
            fp_rf.begin_cycle(cycle)
            record = renamer.rename(IssueQueueEntry(instruction))
            dest = record.dest
            if dest is not None:
                state = values[dest.uid] = ValueState(dest, instruction.seq)
                state.ex_end_cycle = cycle
                regfile = int_rf if dest.reg_class is _INT else fp_rf
                state.rf_ready_cycle = regfile.writeback(dest, state, cycle, window)
                state.written_back = True
            op_class = instruction.op_class
            if op_class is _LOAD:
                dcache.access(instruction.mem_address or 0)
            elif op_class is _STORE:
                dcache.access(instruction.mem_address or 0, is_write=True)
            released = record.previous_dest
            if released is not None:
                if released.reg_class is _INT:
                    free_list, regfile = int_free, int_rf
                else:
                    free_list, regfile = fp_free, fp_rf
                free_list.release(released.index)
                if values.pop(released.uid, None) is not None:
                    regfile.release(released)
            cycle += 1
        # Warm accesses must not count toward the detailed run's rates.
        dcache.hits = 0
        dcache.misses = 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationStats:
        """Run the simulation to completion and return the statistics."""
        config = self.config
        stats = self.stats
        max_cycles = config.effective_max_cycles
        max_instructions = config.max_instructions
        fetch_unit = self.fetch_unit
        fetch_into = fetch_unit.fetch_into
        fetch_buffer_size = config.fetch_buffer_size
        decode_queue = self._decode_queue
        completions = self._completions
        # Collaborator containers; both are mutated in place and never
        # rebound, so the emptiness checks below stay valid.
        rob = self.rob
        window_entries = self.window.entries
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        fu_pool = self.fu_pool
        int_begin = int_rf.begin_cycle
        fp_begin = fp_rf.begin_cycle
        fu_begin = fu_pool.begin_cycle
        commit_stage = self._commit_stage
        writeback_stage = self._writeback_stage
        issue_stage = self._issue_stage
        dispatch_stage = self._dispatch_stage
        # Occupancy sampling is resolved once, outside the loop: when it
        # is disabled (the default) the per-cycle cost is literally zero.
        sample_occupancy = (
            self._sample_occupancy if config.collect_occupancy else None
        )

        # The termination conditions are evaluated exactly once per
        # simulated cycle, after that cycle's work: the final loop pass
        # can therefore not inflate ``stats.cycles``, which ends up being
        # exactly the number of cycles whose stages ran.
        cycle = 0
        while True:
            if cycle > max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({stats.committed_instructions} instructions committed); "
                    "likely a livelock in the pipeline model"
                )

            # Per-cycle resets, skipped while a component reports it has
            # nothing to reset (a plain ``idle`` attribute, no call).
            if not int_rf.idle:
                int_begin(cycle)
            if not fp_rf.idle:
                fp_begin(cycle)
            if not fu_pool.idle:
                fu_begin(cycle)

            # Commit runs before this cycle's write-back, so a completed
            # head always completed in an earlier cycle.
            if rob and rob[0].completed:
                commit_stage(cycle)
            if cycle in completions:
                writeback_stage(cycle)
            if window_entries:
                issue_stage(cycle)
            if decode_queue:
                dispatch_stage(cycle)
            # Fetch: the frontend's ``exhausted`` and ``blocked`` are plain
            # attributes, so idle cycles cost no call.
            if (not fetch_unit.exhausted and not fetch_unit.blocked
                    and len(decode_queue) < fetch_buffer_size):
                fetch_into(decode_queue, stats, cycle)

            if sample_occupancy is not None:
                sample_occupancy(cycle)

            cycle += 1
            if stats.committed_instructions >= max_instructions:
                break
            if not decode_queue and not rob and fetch_unit.exhausted:
                break

        stats.cycles = cycle
        self._finalize_statistics()
        return stats

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit_stage(self, cycle: int) -> None:
        """Retire up to ``commit_width`` completed entries from the ROB head.

        Commit is in program order: an entry leaves only from the head, so
        a completed entry waits behind an older incomplete one, and it
        commits at the earliest one cycle after it completes (write-back
        and commit are separate stages).
        """
        stats = self.stats
        observer = self.commit_observer
        rob = self.rob
        renamer = self.renamer
        int_free = renamer.int_free
        fp_free = renamer.fp_free
        values = self.window.values
        stores_at = self.stores_at
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        release_hooks = self._release_hooks
        value_reads = stats.value_read_distribution
        committed = stats.committed_instructions
        width = min(self.config.commit_width,
                    self.config.max_instructions - committed)
        while width > 0 and rob:
            entry = rob[0]
            if not entry.completed or entry.complete_cycle >= cycle:
                break
            rob.popleft()
            width -= 1
            # Release the previous mapping of the committed destination.
            released = entry.previous_dest
            if released is not None:
                if released.reg_class is _INT:
                    free_list, regfile = int_free, int_rf
                else:
                    free_list, regfile = fp_free, fp_rf
                free_list.release(released.index)
                uid = released.uid
                state = values.get(uid)
                if state is not None:
                    value_reads[state.reads] += 1
                    del values[uid]
                    if release_hooks:
                        regfile.release(released)
            instruction = entry.instruction
            op_class = instruction.op_class
            if op_class is _STORE:
                address = instruction.mem_address
                self.dcache.access(address, is_write=True)
                # Stores leave the queue in program order, so this one is
                # the oldest queued store to its address.
                stores = stores_at.get(address)
                if stores is None or stores[0] != entry.seq:
                    raise SimulationError(
                        f"store {entry.seq} is not the oldest queued store "
                        f"to address {address}"
                    )
                if len(stores) == 1:
                    del stores_at[address]
                else:
                    del stores[0]
                self.lsq_occupancy -= 1
            elif op_class is _LOAD:
                self.lsq_occupancy -= 1
            committed += 1
            if observer is not None:
                observer.on_commit(entry, cycle)
        stats.committed_instructions = committed

    # ------------------------------------------------------------------
    # write-back / completion
    # ------------------------------------------------------------------

    def _writeback_stage(self, cycle: int) -> None:
        completions = self._completions.pop(cycle, None)
        if completions is None:
            return
        window = self.window
        stats = self.stats
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        # Completions are bucketed at ``ex_end + 1``.
        ex_end_cycle = cycle - 1
        for entry in completions:
            dest = entry.dest
            if dest is not None:
                state = entry.dest_state
                if state is None:
                    raise SimulationError(f"no scoreboard state for {dest}")
                regfile = int_rf if dest.reg_class is _INT else fp_rf
                rf_ready = regfile.writeback(dest, state, cycle, window)
                state.rf_ready_cycle = rf_ready
                state.written_back = True
            entry.completed = True
            entry.complete_cycle = cycle

            if entry.instruction.is_branch:
                self.fetch_unit.on_branch_writeback(entry, ex_end_cycle)
                if entry.mispredicted:
                    stats.branch_mispredictions += 1

    # ------------------------------------------------------------------
    # issue (wakeup / select / operand read planning)
    # ------------------------------------------------------------------

    def _issue_stage(self, cycle: int) -> None:
        """Select up to ``issue_width`` window entries, oldest first.

        Every candidate is attempted in order and each check runs in a
        fixed order — operand plan, upper-level fill, FU, read ports —
        because failed attempts have side effects the statistics see:
        stall counters, and the register file cache's pseudo-LRU touches
        while planning.  An attempt allocates nothing: it re-plans its
        sources' value states, which dispatch put in the entry, and
        counters are summed in locals and added once per cycle.  A load
        never waits for older store addresses: the stream gives every
        store its address at dispatch.

        Select, the window removal, the wakeup of the waiting consumers
        and the functional-unit booking run here in place, on the
        window's and the FU pool's own structures.
        """
        window = self.window
        window_entries = window.entries
        read_stages = self.read_stages
        ex_start = cycle + read_stages
        issue_width = self.config.issue_width
        next_cycle = cycle + 1
        fu_pool = self.fu_pool
        fu_groups = fu_pool.group_for_class
        waiters = window.waiters
        consumers = window.consumers if window.track_consumers else None
        consumer_offset = self.consumer_offset
        issue_hooks = self._issue_hooks
        completions = self._completions
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        int_plan = int_rf.plan_operand_read
        fp_plan = fp_rf.plan_operand_read
        not_ready = _NOT_READY
        miss = _MISS
        int_class = _INT
        load = _LOAD
        store = _STORE
        issued = 0
        stalls_fu = 0
        stalls_ports = 0
        # Select, oldest first without sorting: insertion order is program
        # order (see ``IssueQueue.entries``), and issued entries leave the
        # window on selection, so every resident entry is unissued.  The
        # loop walks a copy, and testing each entry when it is reached
        # selects the entries that were ready when the cycle began: an
        # entry woken by a producer issued this cycle cannot execute by
        # ``ex_start``.
        for entry in list(window_entries.values()):
            if entry.pending or entry.earliest_ex_cycle > ex_start:
                continue
            instruction = entry.instruction
            op_class = instruction.op_class

            # Operand read planning, in source order, in place on the
            # sources' value states.
            retry = None
            missing = False
            for state in entry.accesses:
                source = (int_plan if state.register.reg_class is int_class
                          else fp_plan)(state, cycle)
                if source is not_ready:
                    retry = state.retry_cycle
                    if retry is None or retry < next_cycle:
                        retry = next_cycle
                    break
                if source is miss:
                    missing = True
            if retry is not None:
                # Defer: no execution before the retry cycle's read.
                earliest = retry + read_stages
                if earliest > entry.earliest_ex_cycle:
                    entry.earliest_ex_cycle = earliest
                continue

            if missing:
                self._handle_upper_level_misses(entry, cycle)
                continue
            # Inlined ``fu_pool.can_issue``; its busy-unit count only
            # matters while an unpipelined divide is in flight.
            group = fu_groups[op_class]
            if group.issued_this_cycle >= group.count or (
                    group.busy_until and not fu_pool.can_issue(op_class, cycle)):
                stalls_fu += 1
                continue
            int_accesses = entry.int_accesses
            if int_accesses and not int_rf.can_claim_reads(int_accesses):
                stalls_ports += 1
                continue
            fp_accesses = entry.fp_accesses
            if fp_accesses and not fp_rf.can_claim_reads(fp_accesses):
                stalls_ports += 1
                continue

            # Issue: claim the read ports.  The models also count how the
            # operands arrive and each value's reads.
            if int_accesses:
                int_rf.claim_reads(int_accesses)
            if fp_accesses:
                fp_rf.claim_reads(fp_accesses)

            # Execution latency: the common (non-memory) case is a plain
            # field read, and loads are the only class with real work.
            if op_class is load:
                address = instruction.mem_address or 0
                if self.forwarding_store(entry.seq, address) is not None:
                    latency = 2  # address generation + forward from the store queue
                else:
                    latency = 1 + self.dcache.access(address).latency
            elif op_class is store:
                latency = 1  # address generation; data is written at commit
            else:
                latency = instruction.latency or 1
            # Book the unit; ``fu_pool.idle`` is cleared once, below.
            group.issued_this_cycle += 1
            if op_class in UNPIPELINED_CLASSES:
                group.busy_until.append(cycle + latency)
            ex_end = cycle + read_stages + latency - 1

            # Leave the window.  Waiter lists need no cleaning: the entry
            # was selectable only once every list it waited on was popped.
            if entry.issued:
                raise SimulationError(f"instruction {entry.seq} issued twice")
            entry.issued = True
            del window_entries[entry.seq]
            if consumers is not None:
                for register in entry.sources:
                    uid = register.uid
                    waiting = consumers.get(uid)
                    if waiting is None:
                        continue
                    if entry in waiting:
                        waiting.remove(entry)
                    if not waiting:
                        del consumers[uid]

            dest = entry.dest
            if dest is not None:
                state = entry.dest_state
                if state is None:
                    raise SimulationError(f"no scoreboard state for {dest}")
                state.ex_end_cycle = ex_end
                # Wakeup: the producer's end of execution is now known, so
                # its whole waiter list learns when the value can be used.
                # A waiter waits on its producer, so none has issued; one
                # that reads ``dest`` twice is listed, and counted, twice.
                waiting = waiters.pop(dest.uid, None)
                if waiting is not None:
                    available = ex_end + consumer_offset
                    for waiter in waiting:
                        waiter.pending -= 1
                        if available > waiter.earliest_ex_cycle:
                            waiter.earliest_ex_cycle = available
                    # The waiters are all of the producer's unissued
                    # consumers, oldest first: the prefetch's candidates.
                    if issue_hooks:
                        (int_rf if dest.reg_class is _INT else fp_rf).on_issue(
                            dest, waiting, cycle, window
                        )

            # The completion carries the in-flight record itself.
            bucket = completions.get(ex_end + 1)
            if bucket is None:
                completions[ex_end + 1] = [entry]
            else:
                bucket.append(entry)

            issued += 1
            if issued >= issue_width:
                break

        if issued:
            fu_pool.idle = False
        stats = self.stats
        stats.issue_stalls_fu += stalls_fu
        stats.issue_stalls_ports += stalls_ports

    def _handle_upper_level_misses(self, entry: IssueQueueEntry, cycle: int) -> None:
        """Fetch-on-demand: bring missing operands up over the buses.

        The operands of the oldest waiting instruction are pinned in the
        uppermost level until they are read, so that even a tiny upper bank
        cannot thrash the two operands of one instruction against each
        other and livelock the pipeline.
        """
        self.stats.issue_stalls_fill += 1
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        # The window's first key is its oldest entry (insertion order is
        # program order), and ``entry`` is in the window.
        is_oldest = next(iter(self.window.entries)) == entry.seq
        # One pass: pin the file-resident operands of the oldest entry and
        # request a fill, in source order, for every missing one.
        latest_completion: Optional[int] = None
        for state in entry.accesses:
            source = state.source
            if source is _MISS:
                register = state.register
                completion = (int_rf if register.reg_class is _INT else fp_rf).request_fill(
                    register, state, cycle, pin=is_oldest
                )
                if completion is not None:
                    latest_completion = max(latest_completion or 0, completion)
            elif is_oldest and source is _FILE:
                register = state.register
                (int_rf if register.reg_class is _INT else fp_rf).pin_operand(register)
        # Defer: no execution before the fills complete (or, with no
        # fill started, before the next cycle's read).
        until = cycle + 1 if latest_completion is None else latest_completion
        earliest = until + self.read_stages
        if earliest > entry.earliest_ex_cycle:
            entry.earliest_ex_cycle = earliest

    def forwarding_store(self, seq: int, address: int) -> Optional[int]:
        """Return the seq of the youngest queued store to ``address`` that
        is older than the load ``seq``, if any.

        A hit means the load's data is forwarded inside the load/store
        queue and the D-cache is not accessed; it counts into
        ``SimulationStats.loads_forwarded``.
        """
        stores = self.stores_at.get(address)
        if stores is None:
            return None
        for store_seq in reversed(stores):
            if store_seq < seq:
                self.stats.loads_forwarded += 1
                return store_seq
        return None

    # ------------------------------------------------------------------
    # decode / rename / dispatch
    # ------------------------------------------------------------------

    def _dispatch_stage(self, cycle: int) -> None:
        """Rename up to ``decode_width`` decoded instructions and insert
        them into the window, the ROB and, for loads and stores, the LSQ.

        The insertions run here in place.  An instruction that finds the
        ROB, the window, the queue or its destination's free list full
        stalls dispatch; nothing leaves any of them during dispatch, so
        these stall checks are the only capacity checks.
        """
        decode_queue = self._decode_queue
        stats = self.stats
        config = self.config
        decode_width = config.decode_width
        rob = self.rob
        rob_capacity = config.rob_size
        window = self.window
        window_entries = window.entries
        window_capacity = window.capacity
        waiters = window.waiters
        consumers = window.consumers if window.track_consumers else None
        values = window.values
        stores_at = self.stores_at
        renamer = self.renamer
        rename = renamer.rename
        offset = self.consumer_offset
        # An instruction cannot be selected in the cycle it is dispatched;
        # the earliest issue is the next cycle, hence the earliest execute
        # is ``dispatch + 1 + read_stages``.
        dispatch_earliest = cycle + 1 + self.read_stages
        # The free registers, for the rename stall.
        int_free = renamer.int_free.free
        fp_free = renamer.fp_free.free
        # Free ROB, window and queue slots, counted down as entries enter.
        rob_room = rob_capacity - len(rob)
        window_room = window_capacity - len(window_entries)
        lsq_room = config.lsq_size - self.lsq_occupancy
        dispatched = 0
        while decode_queue and dispatched < decode_width:
            entry = decode_queue[0]
            if entry.fetch_cycle >= cycle:
                break  # still in the decode stage
            instruction = entry.instruction
            op_class = instruction.op_class
            is_memory = op_class is _LOAD or op_class is _STORE
            if rob_room <= 0:
                stats.dispatch_stalls_rob += 1
                break
            if window_room <= 0:
                stats.dispatch_stalls_window += 1
                break
            if is_memory and lsq_room <= 0:
                stats.dispatch_stalls_lsq += 1
                break
            dest = instruction.dest
            if dest is not None and not (
                int_free if dest.reg_class is _INT else fp_free
            ):
                stats.dispatch_stalls_registers += 1
                break

            decode_queue.popleft()
            # The record fetch built is renamed in place.
            rename(entry)
            seq = entry.seq
            dest = entry.dest
            if dest is not None:
                state = entry.dest_state = ValueState(dest, seq)
                values[dest.uid] = state

            # Window insert: the operand accesses are the sources' value
            # states; the entry joins the consumer list of every source
            # (when the window keeps one) and the waiter list of every
            # source whose producer has not issued, and counts those.
            earliest = dispatch_earliest
            pending = 0
            sources = entry.sources
            if sources:
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
                    state = values.get(uid)
                    if state is None:
                        raise SimulationError(f"no scoreboard state for {register}")
                    accesses.append(state)
                    if register.reg_class is _INT:
                        int_count += 1
                    ex_end = state.ex_end_cycle
                    if ex_end is not None:
                        if ex_end + offset > earliest:
                            earliest = ex_end + offset
                    else:
                        pending += 1
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
                    entry.fp_accesses = ()
                elif not int_count:
                    entry.int_accesses = ()
                    entry.fp_accesses = accesses
                else:
                    entry.int_accesses = [a for a in accesses if a.register.reg_class is _INT]
                    entry.fp_accesses = [a for a in accesses
                                         if a.register.reg_class is not _INT]
            else:
                entry.accesses = entry.int_accesses = entry.fp_accesses = ()
            entry.pending = pending
            entry.earliest_ex_cycle = earliest
            window_entries[seq] = entry

            # ROB append, in program order.  Every queued load and store
            # is also in the ROB, so this check keeps the queue in program
            # order too.
            if rob and rob[-1].seq >= seq:
                raise SimulationError("ROB entries must be dispatched in program order")
            rob.append(entry)
            rob_room -= 1
            window_room -= 1

            if is_memory:
                lsq_room -= 1
                if op_class is _STORE:
                    # Store addresses are produced by the address-generation
                    # part of the store, which does not wait for the store
                    # data; the stream already carries the effective
                    # address, so younger loads are only delayed by real
                    # same-address conflicts (store→load forwarding).
                    address = instruction.mem_address
                    if address is None:
                        raise SimulationError(f"store {seq} has no address at dispatch")
                    stores = stores_at.get(address)
                    if stores is None:
                        stores_at[address] = [seq]
                    else:
                        stores.append(seq)
            dispatched += 1

        if dispatched:
            self.lsq_occupancy = config.lsq_size - lsq_room
            # Occupancies and registers-in-use only grow at dispatch, so
            # the maxima are attained right here; cycles without a
            # dispatch cannot set a new maximum.
            occupancy = window_capacity - window_room
            if occupancy > stats.max_window_occupancy:
                stats.max_window_occupancy = occupancy
            rob_occupancy = rob_capacity - rob_room
            if rob_occupancy > stats.max_rob_occupancy:
                stats.max_rob_occupancy = rob_occupancy
            int_in_use = renamer.num_int_physical - len(int_free)
            if int_in_use > stats.max_int_registers_in_use:
                stats.max_int_registers_in_use = int_in_use
            fp_in_use = renamer.num_fp_physical - len(fp_free)
            if fp_in_use > stats.max_fp_registers_in_use:
                stats.max_fp_registers_in_use = fp_in_use

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _sample_occupancy(self, cycle: int) -> None:
        needed: set[PhysicalRegister] = set()
        ready: set[PhysicalRegister] = set()
        for entry in self.window.entries.values():
            produced_sources = []
            all_produced = True
            for state in entry.accesses:
                if state.ex_end_cycle is not None and state.ex_end_cycle <= cycle:
                    produced_sources.append(state.register)
                else:
                    all_produced = False
            needed.update(produced_sources)
            if all_produced and produced_sources:
                ready.update(produced_sources)
        self.stats.record_occupancy(OccupancySample(len(needed), len(ready)))

    def _finalize_statistics(self) -> None:
        self.stats.icache_hits = self.fetch_unit.icache_hits
        self.stats.icache_misses = self.fetch_unit.icache_misses
        self.stats.dcache_hits = self.dcache.hits
        self.stats.dcache_misses = self.dcache.misses
        # The register files count how the operands they delivered
        # arrived; those counts are the only ones.
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        self.stats.operands_from_bypass = int_rf.reads_from_bypass + fp_rf.reads_from_bypass
        self.stats.operands_from_file = int_rf.reads_from_file + fp_rf.reads_from_file
        regfile_stats: Dict[str, int] = {}
        for reg_class, regfile in self._regfiles.items():
            for key, value in regfile.statistics().items():
                regfile_stats[f"{reg_class.value}_{key}"] = value
        self.stats.regfile_statistics = regfile_stats
        observer = self.commit_observer
        if observer is not None:
            self.stats.commit_checksum = observer.final_digest()


def simulate(
    workload: Optional[Iterable[DynamicInstruction]],
    regfile_factory: Callable[[], RegisterFileModel],
    config: Optional[ProcessorConfig] = None,
    benchmark_name: str = "workload",
    commit_observer=None,
    frontend=None,
) -> SimulationStats:
    """Convenience wrapper: build a :class:`Processor`, run it, return stats."""
    processor = Processor(workload, regfile_factory, config, benchmark_name,
                          commit_observer=commit_observer, frontend=frontend)
    return processor.run()
