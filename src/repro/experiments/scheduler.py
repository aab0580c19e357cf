"""Parallel execution of simulation points.

Experiments plan the simulation runs they need as
:class:`SimulationPoint` objects (see
:func:`repro.experiments.common.plan`); the scheduler deduplicates
them, skips points already in
the :class:`~repro.experiments.store.ResultStore` and executes the
remainder with the **trace-once / replay-many** engine:

* pending points are grouped by their decoded-trace key — one
  (workload, frontend configuration) pair per group; every register-file
  architecture and backend configuration in a sweep shares one group;
* each group's trace is recorded once (one canonical pipeline run over
  the full stream, see :mod:`repro.trace`) unless the
  :class:`~repro.trace.store.TraceStore` already holds it — or, for a
  group whose every point reads a bounded prefix of its stream (see
  :func:`fetch_slack`), any long enough trace of the same stream, the
  shortest stored one first; such groups that must record ride on the
  longest recording of their family in the same call;
* the group's points are then *replayed* against the trace, skipping
  workload generation and the whole frontend while reproducing the
  live-run statistics bit for bit.

Both steps run one task function through :func:`fan_out`, whatever
the ``jobs`` count.  At ``jobs=1`` the tasks run inline on the engine's
own traces.  With ``jobs`` > 1 the work fans out across a **warm worker
pool** that persists across calls (figure sweeps reuse it); batches
carry multiple points per dispatch instead of one task per point.
Tasks, traces and statistics cross the process boundary by pickle; a
trace pickles as its columnar blob
(:meth:`~repro.trace.schema.DecodedTrace.to_bytes`, the bytes the trace
store writes).  Workers only compute: the engine process alone puts
traces into its :class:`~repro.trace.store.TraceStore` and emits the
``trace.record`` and ``point.simulate`` spans, at every ``jobs`` value:
live around the work it runs itself, and from the seconds each worker
task reports for the rest.

Simulations are deterministic functions of ``(benchmark profile, seed,
architecture, config)``, so a parallel or replayed run produces
bit-identical statistics to a serial live one — only wall-clock time
changes.  Replay is an execution strategy, not part of a point's
identity: :meth:`SimulationPoint.store_key` is unaffected, so replayed
and live runs of the same point share one result-store entry.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import math
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Executor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos import seams as _seams
from repro.errors import ConfigurationError
from repro.experiments.store import ResultStore, simulation_key
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.pipeline.stats import SimulationStats
from repro.regfile.base import RegisterFileModel
from repro.sampling.spec import SamplingSpec
from repro.trace import DecodedTrace, TraceStore, replay_simulate, trace_key
from repro.trace.recorder import record_trace_with_stats
from repro.trace.schema import family_length
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

#: Progress sink: receives human-readable one-liners.
ProgressCallback = Callable[[str], None]

#: Upper bound on memoised store keys (see ``SimulationPoint.store_key``);
#: a full table is cleared, so the memo never outgrows it.
STORE_KEY_MEMO_LIMIT = 4096

_STORE_KEYS: Dict["SimulationPoint", str] = {}
_STORE_KEYS_LOCK = threading.Lock()


def fetch_slack(config: ProcessorConfig) -> int:
    """How far past its commit budget a run may read its stream.

    ``rob_size + fetch_buffer_size + 2 * fetch_width + 2`` instructions:
    162 at the Table 1 defaults.  The derivation, for a budget of B
    instructions (``config.max_instructions``):

    * Each cycle runs commit, write-back, issue, dispatch and fetch, in
      that order, and the run stops after the first cycle that ends with
      B commits.  Commit never retires past B.
    * At the end of that cycle every fetched instruction is committed
      (B), in the ROB (at most ``rob_size``; dispatch stops at a full
      ROB) or in the fetch buffer.  Fetch runs only while the buffer
      holds fewer than ``fetch_buffer_size`` entries and adds at most
      ``fetch_width``, so the buffer ends with at most
      ``fetch_buffer_size - 1 + fetch_width``.  Hence the run fetches at
      most F = B + ``rob_size`` + ``fetch_buffer_size`` +
      ``fetch_width`` - 1 instructions.
    * A fetch call reads at most one instruction past the group it
      delivers (the one whose I-cache line missed, or the read that
      finds the stream empty), so no call of the run reads past index F.
    * The recording of an N-instruction stream makes the same fetch
      calls, with the same outcomes, as the recording of any longer
      stream of its family, up to the call that reads index N.  For
      N > F, every event a replay consumes comes from a call that read
      no index past F: it is common to every trace of the family with
      more than F instructions, and the replayer never reaches the last
      event of any of them.

    So every trace of at least B + ``rob_size`` + ``fetch_buffer_size``
    + ``fetch_width`` instructions drives the run alike.  The slack adds
    one more fetch group and two instructions, so that a change to the
    fetch stage's look-ahead does not silently break the rule.
    ``tests/test_trace_cover.py`` checks both the slack and its use.
    """
    return (config.rob_size + config.fetch_buffer_size
            + 2 * config.fetch_width + 2)


@dataclass(frozen=True)
class SimulationPoint:
    """One (benchmark, architecture, configuration) simulation to run.

    ``sampling`` switches the point from exact simulation to systematic
    interval sampling (see :mod:`repro.sampling`); it is part of the
    point's identity — sampled and exact results never share a store
    entry — but not of its trace key, so sampled and exact points of one
    sweep still share one decoded trace.
    """

    benchmark: str
    factory: Callable[[], RegisterFileModel]
    architecture: str
    config: ProcessorConfig
    warmup_instructions: int = 0
    sampling: Optional["SamplingSpec"] = None

    def store_key(self) -> str:
        """The point's result-store key, memoised process-wide.

        Every part of a point is frozen, so equal points share one key;
        the memo spares a cached job the ``asdict``/JSON/SHA-256 work
        at each of its dedupe, execute and assembly steps.  The key is
        also kept on the instance (not a field: equality, ``repr`` and
        ``replace`` ignore it), so the points of a memoised plan answer
        without hashing themselves and their nested configs; an equal
        but distinct point still finds its key in the memo.
        """
        key = self.__dict__.get("_store_key")
        if key is not None:
            return key
        try:
            key = _STORE_KEYS.get(self)
        except TypeError:  # an unhashable field value (a list from a JSON spec)
            return self._compute_store_key()
        if key is None:
            key = self._compute_store_key()
            with _STORE_KEYS_LOCK:
                if len(_STORE_KEYS) >= STORE_KEY_MEMO_LIMIT:
                    _STORE_KEYS.clear()
                _STORE_KEYS[self] = key
        object.__setattr__(self, "_store_key", key)
        return key

    def _compute_store_key(self) -> str:
        return simulation_key(
            self.benchmark,
            self.factory,
            self.config,
            self.warmup_instructions,
            sampling=None if self.sampling is None else self.sampling.to_payload(),
        )

    def metadata(self) -> dict:
        metadata = {
            "benchmark": self.benchmark,
            "architecture": self.architecture,
            "instructions": self.config.max_instructions,
            "warmup_instructions": self.warmup_instructions,
        }
        if self.sampling is not None:
            metadata["sampling"] = self.sampling.to_payload()
        return metadata

    # ------------------------------------------------------------------
    # trace identity
    # ------------------------------------------------------------------

    def stream_length(self) -> int:
        return self.config.max_instructions + self.warmup_instructions

    def workload_identity(self) -> dict:
        """Identity of the instruction stream this point simulates."""
        return {
            "kind": "synthetic-profile",
            "benchmark": self.benchmark,
            "instructions": self.stream_length(),
        }

    def trace_key(self) -> str:
        """Key of the decoded trace that can drive this point."""
        return trace_key(self.workload_identity(), self.config)

    def family_key(self) -> str:
        """Key shared by the traces of this point's stream at any length."""
        family, _ = family_length(self.trace_key())
        return family

    def reach(self) -> Optional[int]:
        """The stream length any trace must have to drive this point, when
        a trace other than its own may; ``None`` when only its own may.

        An exact point whose warm-up spans :func:`fetch_slack` never
        reads its stream past budget + slack, so every trace of its
        family at least that long replays it bit-identically.  A point
        with less warm-up runs its stream dry at the end, and a sampled
        point places its windows by the trace's length: both results
        depend on the exact stream length.
        """
        if self.sampling is not None:
            return None
        slack = fetch_slack(self.config)
        if self.warmup_instructions < slack:
            return None
        return self.config.max_instructions + slack


def build_point_stream(point: SimulationPoint):
    """The dynamic instruction stream of ``point`` (lazy iterator)."""
    workload = SyntheticWorkload(get_profile(point.benchmark))
    return workload.instructions(point.stream_length())


def _recording_doubles_as_run(point: SimulationPoint) -> bool:
    """Whether recording with ``point``'s own factory *is* its live run.

    The recorder lifts the commit limit to the stream length and disables
    occupancy collection; when the point already commits the whole stream
    and asks for neither occupancy nor an explicit cycle cap, the
    recording run's statistics equal the point's live statistics.
    """
    config = point.config
    return (
        point.warmup_instructions == 0
        and point.sampling is None
        and not config.collect_occupancy
        and config.max_cycles is None
    )


def record_point_trace(point: SimulationPoint):
    """Record the group's trace; harvest the recording run as ``point``'s
    result when eligible.  Returns ``(trace, stats_or_None)``."""
    harvest = _recording_doubles_as_run(point)
    trace, stats = record_trace_with_stats(
        point.benchmark,
        build_point_stream(point),
        point.config,
        point.workload_identity(),
        canonical_factory=point.factory if harvest else None,
    )
    return trace, (stats if harvest else None)


def run_simulation_point(
    point: SimulationPoint, trace: Optional[DecodedTrace] = None
) -> SimulationStats:
    """Simulate one point.

    With ``trace`` the point is replayed (bit-identical, no workload
    generation or frontend); without it the point runs live from
    scratch — the reference the replayed results are checked against.
    A point with a :class:`~repro.sampling.SamplingSpec` is estimated by
    systematic interval sampling over the trace instead (recorded here
    on demand — the sampling engine is trace-driven by construction).
    """
    if point.sampling is not None:
        from repro.sampling.engine import sampled_simulate

        if trace is None:
            trace, _ = record_point_trace(point)
        return sampled_simulate(
            trace, point.factory, point.config, point.sampling,
            benchmark_name=point.benchmark,
        )
    if trace is not None:
        return replay_simulate(
            trace, point.factory, point.config, benchmark_name=point.benchmark
        )
    return simulate(build_point_stream(point), point.factory, point.config,
                    benchmark_name=point.benchmark)


def dedupe_points(points: Iterable[SimulationPoint]) -> Dict[str, SimulationPoint]:
    """Unique points keyed by their store key, first occurrence wins."""
    unique: Dict[str, SimulationPoint] = {}
    for point in points:
        unique.setdefault(point.store_key(), point)
    return unique


# ----------------------------------------------------------------------
# warm worker pool
# ----------------------------------------------------------------------

_POOL: Optional[Executor] = None
_POOL_JOBS = 0
_POOL_RESETS = 0
#: Guards _POOL/_POOL_JOBS: concurrent SweepEngine.execute calls (the
#: sweep service's executor threads) share the module-global pool.
_POOL_LOCK = threading.Lock()


def pool_resets() -> int:
    """How often a broken worker forced the warm pool to be torn down.

    Long-lived consumers (the sweep service's ``/metrics`` endpoint)
    report this as a health signal: a non-zero, growing value means
    worker processes are dying mid-simulation.
    """
    return _POOL_RESETS


def warm_pool(jobs: int) -> Executor:
    """The persistent worker pool (created lazily, resized on demand).

    Reusing one pool across ``SweepEngine.execute`` calls keeps workers
    warm for the whole runner invocation instead of paying process
    spawn per figure.  ``multiprocessing`` is imported here, with the
    first pool: a process that runs everything inline (``jobs=1``)
    never loads it.
    """
    global _POOL, _POOL_JOBS
    with _POOL_LOCK:
        if _POOL is not None and _POOL_JOBS != jobs:
            _POOL.shutdown(wait=True)
            _POOL = None
        if _POOL is None:
            from concurrent.futures import ProcessPoolExecutor

            _POOL = ProcessPoolExecutor(max_workers=jobs)
            _POOL_JOBS = jobs
        return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (tests, interpreter exit)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None


atexit.register(shutdown_pool)


def fan_out(
    tasks: Sequence[Any],
    worker: Callable[[Any], Any],
    jobs: int = 1,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Apply ``worker`` to every task, serially or across worker processes.

    The shared fan-out primitive behind the experiment scheduler and the
    differential validation runner.  With ``jobs`` > 1 and several tasks
    the tasks are shipped to the persistent :func:`warm_pool`, so the
    worker (a module-level callable, or a ``functools.partial`` of one),
    the tasks and the results must pickle; otherwise ``worker`` runs
    inline on the very objects passed in.  ``on_result`` fires once per
    completed task, in completion order, with ``(task_index, result)``;
    results are returned in task order regardless.
    """
    tasks = list(tasks)
    results: List[Any] = [None] * len(tasks)

    def complete(index: int, result: Any) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)

    if jobs <= 1 or len(tasks) <= 1:
        for index, task in enumerate(tasks):
            complete(index, worker(task))
        return results

    def submit_all() -> Dict[Any, int]:
        pool = warm_pool(jobs)
        return {
            pool.submit(worker, task): index
            for index, task in enumerate(tasks)
        }

    try:
        try:
            futures = submit_all()
        except RuntimeError:
            # A concurrent caller's crash recovery shut the shared pool
            # down between our warm_pool() and submit ("cannot schedule
            # new futures after shutdown").  Resubmit everything on a
            # fresh pool; tasks are pure, so any task the torn-down pool
            # already ran is merely duplicated work, never a wrong result.
            futures = submit_all()
        outstanding = set(futures)
        while outstanding:
            finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            for future in finished:
                complete(futures[future], future.result())
    except BrokenExecutor:
        # ``BrokenProcessPool``, the only broken executor the pool raises:
        # a dead worker poisons the whole executor.  Tear the persistent
        # pool down before re-raising so the *next* fan-out call gets a
        # fresh pool instead of inheriting the broken one forever.
        global _POOL_RESETS
        with _POOL_LOCK:
            _POOL_RESETS += 1
        shutdown_pool()
        raise
    return results


# ----------------------------------------------------------------------
# the engine's task
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _TraceBatch:
    """Points of one group that one task runs in order.

    ``trace`` is the group's trace, or ``None`` when the task records it
    first.  A batch crosses to a worker process by pickle, and the trace
    with it, as its columnar blob (see :class:`DecodedTrace`).
    """

    points: Tuple[SimulationPoint, ...]
    trace: Optional[DecodedTrace] = None


class _SpanLog:
    """Span factory of a task run in a worker process: it times each
    span and keeps it as ``(name, seconds, attrs)``, for the engine to
    emit once the task's result is back."""

    def __init__(self) -> None:
        self.finished: List[Tuple[str, float, Dict[str, Any]]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        started = time.perf_counter()
        yield
        self.emit(name, time.perf_counter() - started, **attrs)

    def emit(self, name: str, seconds: float, **attrs) -> None:
        self.finished.append((name, seconds, attrs))


class _LiveSpans:
    """Span factory of a task the engine runs itself: its live spans, so
    the work runs inside them and a raising point ends its span with the
    error.

    This is the one thing ``jobs`` changes.  Pickled into a worker
    process, the factory arrives as an empty :class:`_SpanLog`: a
    worker's spans are emitted from the seconds its task returns.
    """

    finished = ()

    def __init__(self, engine: "SweepEngine") -> None:
        self.span = engine._span
        self.emit = engine._emit_span

    def __reduce__(self):
        return (_SpanLog, ())


def _run_batch(
    batch: _TraceBatch, spans: "_LiveSpans | _SpanLog"
) -> Tuple[Optional[DecodedTrace], float,
           List[Tuple[SimulationStats, float]], Sequence]:
    """The engine's task, inline and in workers alike: run ``batch``'s
    points in order.

    A batch with no trace records it first from its first point's
    stream; that point's result is the recording run itself when it
    doubles as the point's run (a *harvest*, billed the recording's
    seconds, so single-point jobs still show in the latency
    percentiles), a replay otherwise.
    ``spans`` opens the ``trace.record`` and ``point.simulate`` spans.
    Returns ``(recorded trace or None, record seconds, (stats, seconds)
    per point, finished spans)``.  Recording and replay go through this
    module's globals, which perfbench's tracer wraps.
    """
    trace = batch.trace
    recorded = None
    record_seconds = 0.0
    results = []
    for point in batch.points:
        if _seams.active is not None:
            # Chaos seam: slow / hung / crashing worker faults land here,
            # once per executed point, before its work starts, so the
            # resilience layer above (deadlines, lease stealing,
            # retries) is what gets exercised.
            _seams.active.fire(
                "engine.point",
                benchmark=point.benchmark,
                architecture=point.architecture,
            )
        if trace is None:
            with spans.span("trace.record", benchmark=point.benchmark):
                started = time.perf_counter()
                recorded, stats = record_point_trace(point)
                record_seconds = time.perf_counter() - started
            trace = recorded
            if stats is not None:
                spans.emit("point.simulate", record_seconds,
                           strategy="harvest", benchmark=point.benchmark)
                results.append((stats, record_seconds))
                continue
        with spans.span("point.simulate", strategy="replay",
                        benchmark=point.benchmark):
            started = time.perf_counter()
            stats = run_simulation_point(point, trace)
            seconds = time.perf_counter() - started
        results.append((stats, seconds))
    return recorded, record_seconds, results, spans.finished


def _group_reach(members: Sequence[Tuple[str, SimulationPoint]]) -> Optional[int]:
    """The trace length that drives every point of a group, or ``None``
    when some point needs the group's own trace (see
    :meth:`SimulationPoint.reach`)."""
    need = 0
    for _, point in members:
        reach = point.reach()
        if reach is None:
            return None
        need = max(need, reach)
    return need


def _fold_into_longest(
    record_groups: List[Tuple[str, List[Tuple[str, SimulationPoint]]]],
) -> Tuple[List[Tuple[str, List[Tuple[str, SimulationPoint]]]], int]:
    """Merge each group that any long enough trace drives into the
    longest group of its family that records, so a family records once.

    A group's reach never exceeds its own stream length, so the longest
    stream of the family covers it.  Returns the groups left to record,
    in their first order, and how many were folded away.
    """
    def stream_length(index: int) -> int:
        return record_groups[index][1][0][1].stream_length()

    families = [members[0][1].family_key() for _, members in record_groups]
    longest: Dict[str, int] = {}
    for index, family in enumerate(families):
        best = longest.get(family)
        if best is None or stream_length(index) > stream_length(best):
            longest[family] = index
    merged = {index: list(record_groups[index][1]) for index in longest.values()}
    kept = []
    for index, (group_key, members) in enumerate(record_groups):
        target = longest[families[index]]
        if index == target:
            kept.append((group_key, merged[index]))
        elif _group_reach(members) is not None:
            merged[target].extend(members)
        else:
            kept.append((group_key, members))
    return kept, len(record_groups) - len(kept)


# ----------------------------------------------------------------------
# the sweep engine
# ----------------------------------------------------------------------

#: Result sink of one executed point: ``(store key, point, stats,
#: seconds)``.
_Recorder = Callable[[str, SimulationPoint, SimulationStats, float], None]


class SweepEngine:
    """Long-lived facade over the trace-once/replay-many sweep scheduler.

    One engine owns a :class:`ResultStore`, a :class:`TraceStore` and a
    worker-pool size, and executes any number of point batches through
    them: the experiment runner builds one per invocation, while the
    sweep service (:mod:`repro.service`) keeps one alive for its whole
    lifetime so warm workers and both cache tiers amortize across every
    submitted job.

    :meth:`execute` is safe to call from several threads at once.  A
    **single-flight registry** deduplicates identical in-flight points
    across concurrent calls: the first caller simulates a point, every
    other caller blocks until the result lands in the shared store and
    reports it as ``shared_inflight`` instead of executing it again.
    """

    #: Engine counter families; order fixes the layout of :meth:`totals`.
    _COUNTER_NAMES = (
        "calls", "requested", "unique", "cached", "executed",
        "shared_inflight", "traces_recorded", "traces_reused",
    )

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        trace_store: Optional[TraceStore] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        self.store = store if store is not None else ResultStore()
        self.jobs = jobs
        self.trace_store = (
            trace_store if trace_store is not None
            else TraceStore(self.store.cache_dir)
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Event] = {}
        #: Telemetry (spans + event log) is optional; the *registry* is
        #: not — the cumulative engine counters live in it either way,
        #: so ``totals()`` has one source of truth with or without a
        #: service above.
        self.telemetry = telemetry
        self.registry = (
            telemetry.registry if telemetry is not None else MetricsRegistry()
        )
        self._counters = {
            name: self.registry.counter(f"engine.{name}")
            for name in self._COUNTER_NAMES
        }
        self._busy_seconds = self.registry.counter("engine.busy_seconds")
        # Pool resets are counted per process, not per engine: a gauge.
        self.registry.register_collector(
            lambda: {"pool_resets": pool_resets()}, "engine"
        )
        self._point_histogram = self.registry.histogram(
            "point.simulate_seconds",
            help="Wall time of one in-engine simulated point",
        )

    # ------------------------------------------------------------------

    def totals(self) -> dict:
        """Cumulative counters across every :meth:`execute` call."""
        totals: Dict[str, Any] = {
            name: counter.int_value
            for name, counter in self._counters.items()
        }
        totals["busy_seconds"] = round(self._busy_seconds.value, 3)
        totals["pool_resets"] = pool_resets()
        return totals

    def _span(self, name: str, **attrs):
        """A live ``name`` span around work done on this thread, under the
        bound context (a job's ``execute`` span in the service)."""
        if self.telemetry is None:
            return contextlib.nullcontext()
        return self.telemetry.span(name, **attrs)

    def _emit_span(self, name: str, seconds: float, **attrs) -> None:
        """Emit a finished ``name`` span of ``seconds`` under the bound
        context: work a worker process reported, or a harvested run."""
        if self.telemetry is not None:
            span = self.telemetry.span_start(name, **attrs)
            self.telemetry.span_end(name, span, duration_s=seconds, **attrs)

    def close(self) -> None:
        """Release the shared warm worker pool (idempotent)."""
        shutdown_pool()

    # ------------------------------------------------------------------

    def _claim(
        self, pending: Dict[str, SimulationPoint]
    ) -> Tuple[Dict[str, SimulationPoint], Dict[str, threading.Event]]:
        """Split ``pending`` into points this call owns and points another
        in-flight call is already simulating (single-flight dedup)."""
        owned: Dict[str, SimulationPoint] = {}
        shared: Dict[str, threading.Event] = {}
        with self._lock:
            for key, point in pending.items():
                event = self._inflight.get(key)
                if event is not None:
                    shared[key] = event
                else:
                    self._inflight[key] = threading.Event()
                    owned[key] = point
        return owned, shared

    def _release(self, keys: Iterable[str]) -> None:
        with self._lock:
            for key in keys:
                event = self._inflight.pop(key, None)
                if event is not None:
                    event.set()

    # ------------------------------------------------------------------

    def execute(
        self,
        points: Sequence[SimulationPoint],
        progress: Optional[ProgressCallback] = None,
        on_point: Optional[Callable[[SimulationPoint], None]] = None,
    ) -> Dict[str, int]:
        """Ensure every point's result is present in the engine's store.

        Returns a summary dictionary (``requested``, ``unique``,
        ``cached``, ``executed``, ``shared_inflight``,
        ``traces_recorded``, ``traces_reused``, ``elapsed_seconds``)
        that callers log or attach to job records.
        """
        started = time.time()
        points = list(points)
        requested = len(points)
        unique = dedupe_points(points)
        pending: Dict[str, SimulationPoint] = {
            key: point for key, point in unique.items()
            if self.store.get(key) is None
        }
        cached = len(unique) - len(pending)
        owned, shared = self._claim(pending)

        def say(message: str) -> None:
            if progress is not None:
                progress(message)

        say(
            f"schedule: {requested} runs requested, {len(unique)} unique, "
            f"{cached} cached, {len(owned)} to simulate"
            + (f", {len(shared)} in flight elsewhere" if shared else "")
            + (f" on {self.jobs} workers" if self.jobs > 1 and owned else "")
        )

        done = 0
        total_pending = len(owned)

        def record(key: str, point: SimulationPoint, stats: SimulationStats,
                   seconds: float) -> None:
            nonlocal done
            self._point_histogram.observe(seconds)
            self.store.put(key, stats, metadata=point.metadata())
            # Release as soon as the result is visible so concurrent
            # callers waiting on this very point unblock point by point
            # rather than at the end of the whole batch.
            self._release((key,))
            done += 1
            if on_point is not None:
                on_point(point)
            say(
                f"[{done}/{total_pending}] {point.benchmark} @ {point.architecture} "
                f"(t={time.time() - started:.1f}s)"
            )

        counters = {
            "requested": requested,
            "unique": len(unique),
            "cached": cached,
            "executed": len(owned),
            "shared_inflight": len(shared),
            "traces_recorded": 0,
            "traces_reused": 0,
        }

        try:
            if owned:
                self._run_pending(owned, counters, record, say)
        finally:
            # Normally every event was already released by ``record``;
            # after a worker crash this unblocks waiting callers, whose
            # fallback below re-executes the points that never finished.
            self._release(owned)

        for key, event in shared.items():
            while True:
                event.wait()
                if self.store.get(key) is not None:
                    break
                # The owning call died before producing the result; run
                # the point ourselves (a crash-recovery path).  Losing
                # the reclaim race to another waiter means waiting on
                # *their* freshly claimed event, never giving up with
                # the result still missing.
                point = pending[key]
                reclaimed, still_shared = self._claim({key: point})
                if reclaimed:
                    counters["executed"] += 1
                    total_pending += 1
                    try:
                        self._run_pending(reclaimed, counters, record, say)
                    finally:
                        self._release(reclaimed)
                    break
                event = still_shared[key]

        counters["elapsed_seconds"] = round(time.time() - started, 1)
        self._counters["calls"].inc()
        self._busy_seconds.inc(time.time() - started)
        for field_name in ("requested", "unique", "cached", "executed",
                           "shared_inflight", "traces_recorded",
                           "traces_reused"):
            self._counters[field_name].inc(counters[field_name])
        return counters

    # ------------------------------------------------------------------

    def _run_pending(
        self,
        pending: Dict[str, SimulationPoint],
        counters: Dict[str, int],
        record: _Recorder,
        say: ProgressCallback,
    ) -> None:
        """Simulate every point in ``pending`` and record the results.

        Two :func:`fan_out` steps of one task, :func:`_run_batch`, serve
        every ``jobs`` value.  First, one batch per group whose trace is
        not stored: it records the trace and yields the group's first
        point.  Then the remaining points go out in per-group chunks,
        each batch carrying its group's trace.  At ``jobs=1`` the tasks
        run inline on the objects this process holds; with more jobs the
        batches and results cross to and from the workers by pickle, a
        trace as its columnar blob, which is kept on the trace, so a
        trace is encoded at most once per process: the trace store writes
        the very blob a worker returned or a disk load read, and a group
        reused across calls ships the blob it already has.  Either way
        this process puts every recorded trace into its trace store and
        emits every task's spans (see :class:`_LiveSpans`).
        """
        jobs = self.jobs
        traces = self.trace_store

        # Group the pending points by the decoded trace that can drive them.
        groups: Dict[str, List[Tuple[str, SimulationPoint]]] = {}
        for key, point in pending.items():
            groups.setdefault(point.trace_key(), []).append((key, point))

        # Decoded traces held in this process, by group key.  A group
        # whose points all have a reach may replay any trace of its
        # family that covers it, the shortest stored one first.
        loaded: Dict[str, DecodedTrace] = {}
        record_groups: List[Tuple[str, List[Tuple[str, SimulationPoint]]]] = []
        replay_groups: List[Tuple[str, List[Tuple[str, SimulationPoint]]]] = []
        for group_key, members in groups.items():
            reach = _group_reach(members)
            trace = None
            if reach is not None:
                trace = traces.cover(members[0][1].family_key(), reach)
            if trace is None:
                trace = traces.get(group_key)
            if trace is None:
                record_groups.append((group_key, members))
            else:
                loaded[group_key] = trace
                replay_groups.append((group_key, members))
        record_groups, folded = _fold_into_longest(record_groups)
        counters["traces_recorded"] += len(record_groups)
        counters["traces_reused"] += len(replay_groups) + folded

        worker = functools.partial(_run_batch, spans=_LiveSpans(self))

        def finish(group_key: str,
                   members: Sequence[Tuple[str, SimulationPoint]],
                   result) -> None:
            recorded, seconds, ran, spans = result
            for name, span_seconds, attrs in spans:
                self._emit_span(name, span_seconds, **attrs)
            if recorded is not None:
                traces.put(recorded)
                loaded[group_key] = recorded
                self.registry.histogram("trace.record_seconds").observe(seconds)
            for (key, point), (stats, point_seconds) in zip(members, ran):
                record(key, point, stats, point_seconds)

        def on_recorded(index: int, result) -> None:
            group_key, members = record_groups[index]
            finish(group_key, members[:1], result)
            replay_groups.append((group_key, members[1:]))

        fan_out(
            [_TraceBatch(points=(members[0][1],)) for _, members in record_groups],
            worker=worker,
            jobs=jobs,
            on_result=on_recorded,
        )

        # Chunk each group so it spreads across the workers.  Inline tasks
        # cost nothing to dispatch, so jobs=1 records every point as soon
        # as it finishes.
        parts: List[Tuple[str, List[Tuple[str, SimulationPoint]]]] = []
        for group_key, members in replay_groups:
            size = max(1, math.ceil(len(members) / jobs)) if jobs > 1 else 1
            for start in range(0, len(members), size):
                parts.append((group_key, members[start:start + size]))
        fan_out(
            [_TraceBatch(points=tuple(point for _, point in part),
                         trace=loaded[group_key])
             for group_key, part in parts],
            worker=worker,
            jobs=jobs,
            on_result=lambda index, result: finish(*parts[index], result),
        )
