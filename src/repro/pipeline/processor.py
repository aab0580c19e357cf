"""Cycle-level model of a dynamically scheduled superscalar processor.

The pipeline follows the paper's 6-stage structure (fetch, decode/rename,
read, execute, write-back, commit); the read stage takes ``read_stages``
cycles as dictated by the register file architecture under study, and
dependent-instruction timing honours the number of bypass levels the
architecture implements.

The processor is *stream driven*: it consumes a dynamic instruction
stream (correct path only) and models timing.  Branch mispredictions
therefore stall fetch from the mispredicted branch until it resolves,
charging the full front-end refill penalty, which is the standard
trace-driven modelling approach.

Implementation note: ``run`` is the hottest loop of the repository — the
whole experiment harness is bounded by it — so the stage methods trade a
little indirection for speed: one in-flight record
(:class:`~repro.execute.issue_queue.IssueQueueEntry`) per instruction,
from rename to commit — the renamer fills its physical registers, the
window builds its operand accesses once, and the same object sits in
the window and the ROB and is what a completion and the commit observer
carry, so no stage looks an instruction up by sequence number or
allocates a second record; collaborator containers that are never
rebound (window entries, ROB, scoreboard states) are read directly; the
select loop is one flat loop with its collaborators bound once per
cycle, and a select attempt allocates nothing; and stages are skipped
outright on the cycles where their input queues are provably empty.

The per-instruction path also makes no Python call that nobody wrote
on purpose: state read every cycle is a plain attribute, not a
property (the frontend's ``exhausted`` and ``blocked``, the register
files' and FU pool's ``idle``, which lets a cycle skip their
``begin_cycle``); one-line hops are inlined where they run per attempt
(``IssueQueue.defer``, the oldest-entry check, ``FunctionalUnitPool.can_issue``
without busy dividers, ``ValueScoreboard.allocate``); register-file hooks
that are no-ops on a model (``on_issue``, ``release``) are resolved once
per processor; and physical registers, interned by the renamer, are
compared by identity.  Hot functions read enum members through
module-level constants bound once (``_LOAD``), never as ``OpClass.LOAD``,
an attribute read CPython 3.11 does not specialize
(``tests/test_hot_path_enum_reads.py`` lists the functions).  Every
change here is guarded by the golden-stats parity tests
(``tests/test_golden_stats.py``): optimizations must leave
``SimulationStats`` bit-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.execute.bypass import BypassNetwork
from repro.execute.functional_units import FunctionalUnitPool
from repro.execute.issue_queue import IssueQueue, IssueQueueEntry
from repro.execute.rob import ReorderBuffer
from repro.execute.scoreboard import ValueScoreboard, ValueState
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchedInstruction, FetchUnit
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import DynamicInstruction, RegisterClass
from repro.isa.opcodes import OpClass
from repro.memsys.cache import CacheModel
from repro.memsys.lsq import LoadStoreQueue
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import OccupancySample, SimulationStats
from repro.regfile.base import OperandSource, RegisterFileModel
from repro.rename.renamer import PhysicalRegister, Renamer

# Enum members bound once.  The enum metaclass defines ``__getattr__``
# (CPython 3.11), so a read such as ``OpClass.LOAD`` takes a slow
# attribute path the specializing interpreter never specializes; a
# module global read is several times cheaper.
_BYPASS = OperandSource.BYPASS
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
        if (int_rf.read_stages, int_rf.bypass_levels) != (fp_rf.read_stages, fp_rf.bypass_levels):
            raise ConfigurationError(
                "integer and FP register files must share the same timing"
            )
        self._int_rf = int_rf
        self._fp_rf = fp_rf
        # The issue and release hooks are no-ops unless a model overrides
        # them (only the register file cache does); resolve that once.
        self._issue_hooks = any(
            type(rf).on_issue is not RegisterFileModel.on_issue for rf in (int_rf, fp_rf)
        )
        self._release_hooks = any(
            type(rf).release is not RegisterFileModel.release for rf in (int_rf, fp_rf)
        )
        self.read_stages = int_rf.read_stages
        self.bypass = BypassNetwork(int_rf.read_stages, int_rf.bypass_levels)

        self.scoreboard = ValueScoreboard()
        self.renamer = Renamer(self.config.num_int_physical, self.config.num_fp_physical)
        self._seed_architected_registers()

        self.window = IssueQueue(
            self.config.instruction_window, self.scoreboard, self.bypass,
            track_consumers=int_rf.needs_consumer_index,
        )
        self.rob = ReorderBuffer(self.config.rob_size)
        self.lsq = LoadStoreQueue(self.config.lsq_size)
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

        self._decode_queue: deque[FetchedInstruction] = deque()
        # Write-back cycle (``ex_end + 1``) -> the in-flight records that
        # complete then.
        self._completions: Dict[int, List[IssueQueueEntry]] = {}

        # The scoreboard's state dictionary is mutated in place and never
        # rebound.
        self._sb_states = self.scoreboard._states

        self.stats = SimulationStats(
            benchmark=benchmark_name,
            architecture=int_rf.describe(),
        )

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------

    def _seed_architected_registers(self) -> None:
        """The initial logical→physical mappings hold architected values."""
        from repro.isa.instruction import INT_LOGICAL_REGISTERS, FP_LOGICAL_REGISTERS

        for logical in INT_LOGICAL_REGISTERS + FP_LOGICAL_REGISTERS:
            physical = self.renamer.current_mapping(logical)
            self.scoreboard.seed_architected(physical)

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
        rob_entries = self.rob._entries
        window_entries = self.window._entries
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
            if rob_entries and rob_entries[0].completed:
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
            if not decode_queue and not rob_entries and fetch_unit.exhausted:
                break

        stats.cycles = cycle
        self._finalize_statistics()
        return stats

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit_stage(self, cycle: int) -> None:
        stats = self.stats
        observer = self.commit_observer
        renamer = self.renamer
        int_free = renamer._int_free
        fp_free = renamer._fp_free
        sb_states = self._sb_states
        lsq = self.lsq
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        release_hooks = self._release_hooks
        value_reads = stats.value_read_distribution
        committed = stats.committed_instructions
        width = min(self.config.commit_width,
                    self.config.max_instructions - committed)
        for entry in self.rob.retire(width, cycle):
            # Inlined ``renamer.commit``: release the previous mapping of
            # the committed destination.
            released = entry.previous_dest
            if released is not None:
                if released.reg_class is _INT:
                    free_list, regfile = int_free, int_rf
                else:
                    free_list, regfile = fp_free, fp_rf
                free_list.release(released.index)
                uid = released.uid
                state = sb_states.get(uid)
                if state is not None:
                    value_reads[state.reads] += 1
                    del sb_states[uid]  # inlined ``scoreboard.release``
                    if release_hooks:
                        regfile.release(released)
            instruction = entry.instruction
            op_class = instruction.op_class
            if op_class is _STORE:
                self.dcache.access(instruction.mem_address or 0, is_write=True)
                lsq.release(entry.seq)
            elif op_class is _LOAD:
                lsq.release(entry.seq)
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

            instruction = entry.instruction
            fetched = entry.fetched
            if instruction.is_branch and fetched is not None:
                self.fetch_unit.on_branch_writeback(
                    instruction, fetched, ex_end_cycle
                )
                if fetched.mispredicted:
                    stats.branch_mispredictions += 1

    # ------------------------------------------------------------------
    # issue (wakeup / select / operand read planning)
    # ------------------------------------------------------------------

    def _issue_stage(self, cycle: int) -> None:
        """Select up to ``issue_width`` window entries, oldest first.

        Every candidate is attempted in order and each check runs in a
        fixed order — load ordering, operand plan, upper-level fill, FU,
        read ports — because failed attempts have side effects the
        statistics see: stall counters, and the register file cache's
        pseudo-LRU touches while planning.  An attempt allocates nothing:
        it re-plans the accesses its entry built at dispatch, and counters
        are summed in locals and added once per cycle.
        """
        window = self.window
        candidates = window.schedulable(cycle)
        if not candidates:
            return
        issue_width = self.config.issue_width
        read_stages = self.read_stages
        next_cycle = cycle + 1
        lsq = self.lsq
        dcache = self.dcache
        fu_pool = self.fu_pool
        fu_can_issue = fu_pool.can_issue
        fu_groups = fu_pool._group_for_class
        issue_hooks = self._issue_hooks
        completions = self._completions
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        int_plan = int_rf.plan_operand_read
        fp_plan = fp_rf.plan_operand_read
        not_ready = _NOT_READY
        miss = _MISS
        via_bypass = _BYPASS
        load = _LOAD
        store = _STORE
        issued = 0
        stalls_fu = 0
        stalls_ports = 0
        from_bypass = 0
        from_file = 0
        for entry in candidates:
            instruction = entry.instruction
            op_class = instruction.op_class

            if op_class is load and not lsq.load_may_issue(entry.seq):
                # Inlined ``window.defer(entry, next_cycle)``, as below.
                earliest = next_cycle + read_stages
                if earliest > entry.earliest_ex_cycle:
                    entry.earliest_ex_cycle = earliest
                continue

            # Operand read planning, in source order, in place on the
            # accesses built at dispatch.
            retry = None
            missing = False
            for access in entry.accesses:
                source = (int_plan if access.is_int else fp_plan)(access, cycle)
                if source is not_ready:
                    retry = access.retry_cycle
                    if retry is None or retry < next_cycle:
                        retry = next_cycle
                    break
                if source is miss:
                    missing = True
            if retry is not None:
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
                    group.busy_until and not fu_can_issue(op_class, cycle)):
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

            # Issue: claim the read ports and record how operands arrive.
            if int_accesses:
                int_rf.claim_reads(int_accesses)
            if fp_accesses:
                fp_rf.claim_reads(fp_accesses)
            for access in entry.accesses:
                state = access.state
                state.reads += 1
                if access.source is via_bypass:
                    state.consumed_via_bypass = True
                    from_bypass += 1
                else:
                    from_file += 1

            # Execution latency: the common (non-memory) case is a plain
            # field read, and loads are the only class with real work.
            if op_class is load:
                address = instruction.mem_address or 0
                if lsq.forwarding_store(entry.seq, address) is not None:
                    latency = 2  # address generation + forward from the store queue
                else:
                    latency = 1 + dcache.access(address).latency
            elif op_class is store:
                latency = 1  # address generation; data is written at commit
            else:
                latency = instruction.latency or 1
            fu_pool.issue_unchecked(op_class, cycle, latency)
            ex_end = cycle + read_stages + latency - 1

            # No LSQ update here: a store's address went in at dispatch,
            # and nothing reads a load's.
            window.mark_issued(entry)

            dest = entry.dest
            if dest is not None:
                state = entry.dest_state
                if state is None:
                    raise SimulationError(f"no scoreboard state for {dest}")
                state.ex_end_cycle = ex_end
                window.wakeup(dest, ex_end)
                if issue_hooks:
                    (int_rf if dest.reg_class is _INT else fp_rf).on_issue(
                        entry, cycle, window, self.scoreboard
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

        stats = self.stats
        stats.issue_stalls_fu += stalls_fu
        stats.issue_stalls_ports += stalls_ports
        if from_bypass or from_file:
            stats.operands_from_bypass += from_bypass
            stats.operands_from_file += from_file

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
        is_oldest = next(iter(self.window._entries)) == entry.seq
        # One pass: pin the file-resident operands of the oldest entry and
        # request a fill, in source order, for every missing one.
        latest_completion: Optional[int] = None
        for access in entry.accesses:
            source = access.source
            if source is _MISS:
                completion = (int_rf if access.is_int else fp_rf).request_fill(
                    access.register, access.state, cycle, pin=is_oldest
                )
                if completion is not None:
                    latest_completion = max(latest_completion or 0, completion)
            elif is_oldest and source is _FILE:
                (int_rf if access.is_int else fp_rf).pin_operand(access.register)
        # Inlined ``window.defer``.
        until = cycle + 1 if latest_completion is None else latest_completion
        earliest = until + self.read_stages
        if earliest > entry.earliest_ex_cycle:
            entry.earliest_ex_cycle = earliest

    # ------------------------------------------------------------------
    # decode / rename / dispatch
    # ------------------------------------------------------------------

    def _dispatch_stage(self, cycle: int) -> None:
        decode_queue = self._decode_queue
        stats = self.stats
        decode_width = self.config.decode_width
        rob = self.rob
        rob_entries = rob._entries
        rob_capacity = rob.capacity
        window = self.window
        window_entries = window._entries
        window_capacity = window.capacity
        lsq = self.lsq
        lsq_entries = lsq._entries
        lsq_capacity = lsq.capacity
        renamer = self.renamer
        rename = renamer.rename
        sb_states = self._sb_states
        rob_dispatch = rob.dispatch
        window_dispatch = window.dispatch
        # Direct free-list views for the inlined ``renamer.can_rename``.
        int_free = renamer._int_free._free
        fp_free = renamer._fp_free._free
        # Free ROB and window slots: nothing leaves either structure
        # during dispatch, so they are counted down instead of re-measured.
        rob_room = rob_capacity - len(rob_entries)
        window_room = window_capacity - len(window_entries)
        dispatched = 0
        while decode_queue and dispatched < decode_width:
            fetched = decode_queue[0]
            if fetched.fetch_cycle >= cycle:
                break  # still in the decode stage
            instruction = fetched.instruction
            op_class = instruction.op_class
            is_memory = op_class is _LOAD or op_class is _STORE
            if rob_room <= 0:
                stats.dispatch_stalls_rob += 1
                break
            if window_room <= 0:
                stats.dispatch_stalls_window += 1
                break
            if is_memory and len(lsq_entries) >= lsq_capacity:
                stats.dispatch_stalls_lsq += 1
                break
            # Inlined ``renamer.can_rename``.
            dest = instruction.dest
            if dest is not None and not (
                int_free if dest.reg_class is _INT else fp_free
            ):
                stats.dispatch_stalls_registers += 1
                break

            decode_queue.popleft()
            # One in-flight record per instruction, from rename to commit.
            entry = rename(IssueQueueEntry(instruction, fetched))
            dest = entry.dest
            if dest is not None:
                # Inlined ``scoreboard.allocate``.
                state = entry.dest_state = ValueState(dest, instruction.seq)
                sb_states[dest.uid] = state
            rob_dispatch(window_dispatch(entry, cycle))
            rob_room -= 1
            window_room -= 1
            if is_memory:
                is_store = op_class is _STORE
                lsq.insert(instruction.seq, is_store)
                if is_store and instruction.mem_address is not None:
                    # Store addresses are produced by the address-generation
                    # part of the store, which does not wait for the store
                    # data; the stream already carries the effective
                    # address, so younger loads are only delayed by real
                    # same-address conflicts (store→load forwarding).
                    lsq.set_address(instruction.seq, instruction.mem_address)
            dispatched += 1

        if dispatched:
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
        sb_states = self._sb_states
        for entry in self.window._entries.values():
            produced_sources = []
            all_produced = True
            for register in entry.sources:
                state = sb_states.get(register.uid)
                if state is None:
                    raise SimulationError(f"no scoreboard state for {register}")
                if state.ex_end_cycle is not None and state.ex_end_cycle <= cycle:
                    produced_sources.append(register)
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
        self.stats.loads_forwarded = self.lsq.forwarded_loads
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
