"""Parallel execution of simulation points.

Experiments *declare* the simulation runs they need as
:class:`SimulationPoint` objects (see the ``plan`` function of each
figure module); the scheduler deduplicates them, skips points already in
the :class:`~repro.experiments.store.ResultStore` and executes the
remainder with the **trace-once / replay-many** engine:

* pending points are grouped by their decoded-trace key — one
  (workload, frontend configuration) pair per group; every register-file
  architecture and backend configuration in a sweep shares one group;
* each group's trace is recorded once (one canonical pipeline run over
  the full stream, see :mod:`repro.trace`) unless the
  :class:`~repro.trace.store.TraceStore` already holds it;
* the group's points are then *replayed* against the trace, skipping
  workload generation and the whole frontend while reproducing the
  live-run statistics bit for bit.

Both steps run through :func:`fan_out` whatever the ``jobs`` count.  At
``jobs=1`` it calls the tasks inline on the engine's own traces.  With
``jobs`` > 1 the work fans out across a **warm worker pool**: the pool
persists across calls (figure sweeps reuse it), each worker receives a
group's trace once per batch — as shared payload bytes, or by key when a
``--cache-dir`` lets workers load it from disk — and caches it in
process-global memory, and batches carry multiple points per dispatch
instead of one task per point.

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
import math
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos import seams as _seams
from repro.experiments.store import DEFAULT_CLAIM_TTL, ResultStore, simulation_key
from repro.obs import context as _obs_context
from repro.obs import profile as _obs_profile
from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.pipeline.stats import SimulationStats
from repro.regfile.base import RegisterFileModel
from repro.sampling.spec import SamplingSpec
from repro.trace import DecodedTrace, TraceStore, replay_simulate, trace_key
from repro.trace.recorder import record_trace_with_stats
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

#: Progress sink: receives human-readable one-liners.
ProgressCallback = Callable[[str], None]

#: Upper bound on decoded traces kept warm per worker process.
_WORKER_TRACE_CACHE_LIMIT = 4


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
        return simulation_key(
            self.benchmark,
            self.architecture,
            self.config,
            self.warmup_instructions,
            self.factory,
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
    if _seams.active is not None:
        # Chaos seam: the recording run doubles as this point's
        # execution, so worker faults must be able to land here as well
        # as in run_simulation_point.
        _seams.active.fire(
            "engine.point",
            benchmark=point.benchmark,
            architecture=point.architecture,
        )
    harvest = _recording_doubles_as_run(point)
    trace, stats = record_trace_with_stats(
        point.benchmark,
        build_point_stream(point),
        point.config,
        point.workload_identity(),
        canonical_factory=point.factory if harvest else None,
    )
    return trace, (stats if harvest else None)


def build_point_trace(point: SimulationPoint) -> DecodedTrace:
    """Record the decoded trace that drives ``point``'s sweep group."""
    trace, _ = record_point_trace(point)
    return trace


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
    if _seams.active is not None:
        # Chaos seam: slow / hung / crashing worker faults land here,
        # before the simulation body, so the resilience layer above
        # (deadlines, lease stealing, retries) is what gets exercised.
        _seams.active.fire(
            "engine.point",
            benchmark=point.benchmark,
            architecture=point.architecture,
        )
    if point.sampling is not None:
        from repro.sampling.engine import sampled_simulate

        if trace is None:
            trace = build_point_trace(point)
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

_POOL: Optional[ProcessPoolExecutor] = None
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


def warm_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent worker pool (created lazily, resized on demand).

    Reusing one pool across ``SweepEngine.execute`` calls keeps workers —
    and their per-process decoded-trace caches — warm for the whole
    runner invocation instead of paying process spawn per figure.
    """
    global _POOL, _POOL_JOBS
    with _POOL_LOCK:
        if _POOL is not None and _POOL_JOBS != jobs:
            _POOL.shutdown(wait=True)
            _POOL = None
        if _POOL is None:
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
    remote_worker: Optional[Callable[[Any], Any]] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Apply ``worker`` to every task, serially or across worker processes.

    The shared fan-out primitive behind the experiment scheduler and the
    differential validation runner.  With ``jobs`` > 1 the tasks are
    shipped to the persistent :func:`warm_pool`; ``remote_worker``
    (default: ``worker``) is used there instead, so callers can
    substitute a transport-friendly wrapper (e.g. one that returns plain
    dictionaries) — it must be a picklable module-level callable, as
    must the tasks.  ``on_result`` fires once per completed task, in
    completion order, with ``(task_index, result)``; results are
    returned in task order regardless.
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

    submit_worker = remote_worker if remote_worker is not None else worker

    def submit_all() -> Dict[Any, int]:
        pool = warm_pool(jobs)
        return {
            pool.submit(submit_worker, task): index
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
    except BrokenProcessPool:
        # A dead worker poisons the whole executor.  Tear the persistent
        # pool down before re-raising so the *next* fan-out call gets a
        # fresh pool instead of inheriting the broken one forever.
        global _POOL_RESETS
        with _POOL_LOCK:
            _POOL_RESETS += 1
        shutdown_pool()
        raise
    return results


# ----------------------------------------------------------------------
# trace-replay batching
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _RecordTask:
    """Record one group's trace, then produce its first point's result."""

    point: SimulationPoint
    #: Shared cache dir a worker persists the trace to instead of
    #: shipping it back; ``None`` ships the payload.
    cache_dir: Optional[str]
    #: Observability payload (``{"events_dir", "trace"}``) letting the
    #: worker process emit its spans into the service's event log under
    #: the submitting job's trace; ``None`` keeps workers silent.
    obs: Optional[dict] = None


@dataclass(frozen=True)
class _TraceBatch:
    """Several points of one group, shipped to a worker in one dispatch."""

    points: Tuple[SimulationPoint, ...]
    trace_key: str
    #: Trace payload shipped once per batch when workers cannot load the
    #: trace from a shared ``cache_dir``.
    payload: Optional[dict]
    cache_dir: Optional[str]
    obs: Optional[dict] = None


#: Per-worker-process cache of decoded traces (warm across batches).
_WORKER_TRACES: Dict[str, DecodedTrace] = {}

#: Per-worker-process event-log telemetry, keyed by events dir.
_WORKER_OBS: Dict[str, Telemetry] = {}


def _worker_telemetry(
    obs_payload: Optional[dict],
) -> Tuple[Optional[Telemetry], Optional[TraceContext]]:
    """This worker process's telemetry for a task's events dir (lazily
    created, cached for the process lifetime) plus the task's parent
    trace context.  ``(None, None)`` when the task carries no obs."""
    if not isinstance(obs_payload, dict):
        return None, None
    events_dir = obs_payload.get("events_dir")
    if not isinstance(events_dir, str) or not events_dir:
        return None, None
    telemetry = _WORKER_OBS.get(events_dir)
    if telemetry is None:
        from repro.obs.events import EventLog

        telemetry = Telemetry(
            log=EventLog(events_dir, f"worker-{os.getpid()}")
        )
        _WORKER_OBS[events_dir] = telemetry
    return telemetry, TraceContext.from_dict(obs_payload.get("trace"))


def _maybe_span(telemetry: Optional[Telemetry], name: str,
                parent: Optional[TraceContext] = None, **attrs):
    """A telemetry span, or a no-op context when telemetry is absent."""
    if telemetry is None:
        return contextlib.nullcontext()
    return telemetry.span(name, parent=parent, **attrs)


def _keep_worker_trace(trace: DecodedTrace) -> None:
    while len(_WORKER_TRACES) >= _WORKER_TRACE_CACHE_LIMIT:
        _WORKER_TRACES.pop(next(iter(_WORKER_TRACES)))
    _WORKER_TRACES[trace.key] = trace


def _worker_trace(key: str, payload: Optional[dict],
                  cache_dir: Optional[str],
                  fallback_point: SimulationPoint) -> DecodedTrace:
    trace = _WORKER_TRACES.get(key)
    if trace is None:
        if payload is not None:
            trace = DecodedTrace.from_payload(payload)
        elif cache_dir:
            trace = TraceStore(cache_dir).get(key)
        if trace is None:
            # Disk entry vanished or was corrupt: re-record locally.
            trace = build_point_trace(fallback_point)
        _keep_worker_trace(trace)
    return trace


def _replay_timed(
    point: SimulationPoint,
    trace: DecodedTrace,
    telemetry: Optional[Telemetry],
    parent: Optional[TraceContext] = None,
) -> Tuple[SimulationStats, float]:
    """Replay ``point`` on ``trace``; returns its stats and wall seconds."""
    started = time.perf_counter()
    with _maybe_span(telemetry, "point.simulate", parent=parent,
                     strategy="replay", benchmark=point.benchmark):
        stats = run_simulation_point(point, trace)
    return stats, time.perf_counter() - started


def _record_group(
    point: SimulationPoint,
    telemetry: Optional[Telemetry],
    parent: Optional[TraceContext] = None,
) -> Tuple[DecodedTrace, SimulationStats, float, float]:
    """Record ``point``'s group trace and produce ``point``'s result.

    Returns ``(trace, stats, record_seconds, point_seconds)``.  When the
    recording run doubles as the point's run its statistics are
    harvested and its wall time is billed to the point too, so
    single-point jobs aren't invisible in the latency percentiles;
    otherwise the point is replayed on the fresh trace.
    """
    started = time.perf_counter()
    with _maybe_span(telemetry, "trace.record", parent=parent,
                     benchmark=point.benchmark):
        trace, stats = record_point_trace(point)
    record_seconds = time.perf_counter() - started
    if stats is None:
        stats, point_seconds = _replay_timed(point, trace, telemetry, parent)
        return trace, stats, record_seconds, point_seconds
    if telemetry is not None:
        span = telemetry.span_start("point.simulate", parent,
                                    strategy="harvest",
                                    benchmark=point.benchmark)
        telemetry.span_end("point.simulate", span, duration_s=record_seconds,
                           strategy="harvest", benchmark=point.benchmark)
    return trace, stats, record_seconds, record_seconds


def _record_remote(
    task: _RecordTask,
) -> Tuple[Optional[dict], dict, float, float]:
    """Worker entry for a :class:`_RecordTask`: :func:`_record_group`'s
    result with the trace as a payload (``None`` once persisted to the
    shared ``cache_dir``) and the stats as a dictionary."""
    _obs_profile.maybe_enable_worker()
    telemetry, parent = _worker_telemetry(task.obs)
    trace, stats, record_seconds, point_seconds = _record_group(
        task.point, telemetry, parent
    )
    _keep_worker_trace(trace)
    payload = None
    if task.cache_dir:
        TraceStore(task.cache_dir).put(trace)
    else:
        payload = trace.to_payload()
    return payload, stats.to_dict(), record_seconds, point_seconds


def _batch_remote(batch: _TraceBatch) -> List[Tuple[dict, float]]:
    """Worker entry for a :class:`_TraceBatch`: ``(stats dict, seconds)``
    per point."""
    _obs_profile.maybe_enable_worker()
    telemetry, parent = _worker_telemetry(batch.obs)
    trace = _worker_trace(
        batch.trace_key, batch.payload, batch.cache_dir, batch.points[0]
    )
    results = []
    for point in batch.points:
        stats, seconds = _replay_timed(point, trace, telemetry, parent)
        results.append((stats.to_dict(), seconds))
    return results


# ----------------------------------------------------------------------
# the sweep engine
# ----------------------------------------------------------------------

#: Result sink of one executed point: ``(store key, point, stats,
#: seconds)``; worker processes send the stats as a dictionary.
_Recorder = Callable[[str, SimulationPoint, Any, float], None]


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

    When the result store supports claims (a disk-backed
    :class:`ResultStore`), single-flight extends **across replicas**:
    before simulating, the engine claims each point in the shared store.
    Points already claimed by another replica are not executed — the
    engine polls the store until the remote result lands (reported as
    ``remote_inflight``) and, should the remote holder's claim expire
    (a crashed replica), reclaims and executes them itself
    (``remote_reclaimed``).
    """

    #: Engine counter families; order fixes the layout of :meth:`totals`.
    _COUNTER_NAMES = (
        "calls", "requested", "unique", "cached", "executed",
        "shared_inflight", "remote_inflight", "remote_reclaimed",
        "traces_recorded", "traces_reused",
    )

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        trace_store: Optional[TraceStore] = None,
        claim_ttl: float = DEFAULT_CLAIM_TTL,
        claim_poll_interval: float = 0.05,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.jobs = jobs
        self.trace_store = (
            trace_store if trace_store is not None
            else TraceStore(self.store.cache_dir)
        )
        self.claim_ttl = claim_ttl
        self.claim_poll_interval = claim_poll_interval
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

    def _worker_obs(self) -> Optional[dict]:
        """The obs payload shipped with worker tasks (events dir + the
        active trace), or ``None`` when spans aren't being collected."""
        if self.telemetry is None or self.telemetry.log is None:
            return None
        context = _obs_context.current()
        return {
            "events_dir": self.telemetry.log.events_dir,
            "trace": context.to_dict() if context is not None else None,
        }

    def close(self) -> None:
        """Release the shared warm worker pool (idempotent)."""
        shutdown_pool()

    def results_for(
        self, points: Sequence[SimulationPoint]
    ) -> Dict[str, SimulationStats]:
        """Stored statistics of every (deduplicated) point, by store key.

        A read-side companion to :meth:`execute` for callers — the
        search driver above all — that score a batch after ensuring it
        ran.  Points whose result is absent (e.g. a worker crashed
        mid-batch) are simply missing from the mapping; callers decide
        whether that is fatal.
        """
        results: Dict[str, SimulationStats] = {}
        for key in dedupe_points(points):
            stats = self.store.get(key)
            if stats is not None:
                results[key] = stats
        return results

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

        # Cross-replica single-flight: claim every owned point in the
        # shared store; points another replica already holds move to the
        # remote set and are awaited instead of executed.  (A stored
        # result supersedes its claim, so successful runs need no
        # explicit release.)
        remote: Dict[str, SimulationPoint] = {}
        if owned and self.store.supports_claims():
            for key in list(owned):
                ok, holder = self.store.claim_point(key, self.claim_ttl)
                if not ok:
                    # Either another replica holds a live claim, or its
                    # result just landed; both resolve in the wait loop.
                    remote[key] = owned.pop(key)

        def say(message: str) -> None:
            if progress is not None:
                progress(message)

        say(
            f"schedule: {requested} runs requested, {len(unique)} unique, "
            f"{cached} cached, {len(owned)} to simulate"
            + (f", {len(shared)} in flight elsewhere" if shared else "")
            + (f", {len(remote)} claimed by other replicas" if remote else "")
            + (f" on {self.jobs} workers" if self.jobs > 1 and owned else "")
        )

        done = 0
        total_pending = len(owned)

        def record(key: str, point: SimulationPoint, stats: Any,
                   seconds: float) -> None:
            nonlocal done
            if isinstance(stats, dict):  # sent by a worker process
                stats = SimulationStats.from_dict(stats)
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
            "remote_inflight": len(remote),
            "remote_reclaimed": 0,
            "traces_recorded": 0,
            "traces_reused": 0,
        }

        try:
            if owned:
                self._run_pending(owned, counters, record, say)
        finally:
            # Drop store claims for any owned point that never produced a
            # result (worker crash) so other replicas need not wait for
            # the claim TTL to expire.
            if self.store.supports_claims():
                for key in owned:
                    if self.store.peek(key) is None:
                        self.store.release_point(key)
            # Normally every event was already released by ``record``;
            # after a worker crash this unblocks waiting callers, whose
            # fallback below re-executes the points that never finished.
            self._release(owned)

        try:
            self._await_remote(remote, counters, record, say)
        finally:
            # This call holds the in-process events for remote keys, so
            # a crash here must unblock same-process waiters too.
            self._release(remote)

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
                           "shared_inflight", "remote_inflight",
                           "remote_reclaimed", "traces_recorded",
                           "traces_reused"):
            self._counters[field_name].inc(counters[field_name])
        return counters

    # ------------------------------------------------------------------

    def _await_remote(
        self,
        remote: Dict[str, SimulationPoint],
        counters: Dict[str, int],
        record: _Recorder,
        say: ProgressCallback,
    ) -> None:
        """Wait for points claimed by other replicas; reclaim crashed ones.

        This call already holds the in-process single-flight event for
        every remote key, so same-process waiters block on us while we
        poll the shared store.  ``peek`` keeps the polling loop out of
        the hit/miss counters.  When a remote holder's claim expires
        without a result, we claim the point ourselves and execute it —
        the cross-replica mirror of the in-process crash-recovery path.
        """
        for key, point in remote.items():
            while True:
                if self.store.peek(key) is not None:
                    self._release((key,))
                    break
                ok, _holder = self.store.claim_point(key, self.claim_ttl)
                if ok:
                    # The remote claim expired (or was released).  Guard
                    # against the result landing in the race window
                    # between our peek and our claim before re-running.
                    if self.store.peek(key) is not None:
                        self.store.release_point(key)
                        self._release((key,))
                        break
                    say(
                        f"reclaim: remote claim on {key[:12]}… expired; "
                        f"executing locally"
                    )
                    counters["executed"] += 1
                    counters["remote_reclaimed"] += 1
                    self._run_pending({key: point}, counters, record, say)
                    break
                time.sleep(self.claim_poll_interval)

    # ------------------------------------------------------------------

    def _run_pending(
        self,
        pending: Dict[str, SimulationPoint],
        counters: Dict[str, int],
        record: _Recorder,
        say: ProgressCallback,
    ) -> None:
        """Simulate every point in ``pending`` and record the results.

        Two :func:`fan_out` steps serve every ``jobs`` value.  First, one
        record task per group whose trace is not stored; it also yields
        the group's first point.  Then the remaining points go out in
        per-group chunks.  At ``jobs=1`` both run inline on the traces
        this process holds, with no payloads and no stats dictionaries;
        with more jobs, workers receive each group's trace once per
        chunk — as payload bytes, or by key from a shared cache dir.
        """
        jobs = self.jobs
        traces = self.trace_store
        telemetry = self.telemetry
        cache_dir = traces.cache_dir if traces.trace_dir else None
        ship = jobs > 1 and cache_dir is None
        worker_obs = self._worker_obs() if jobs > 1 else None

        # Group the pending points by the decoded trace that can drive them.
        groups: Dict[str, List[Tuple[str, SimulationPoint]]] = {}
        for key, point in pending.items():
            groups.setdefault(point.trace_key(), []).append((key, point))

        # Decoded traces held in this process, and payloads workers sent.
        loaded: Dict[str, DecodedTrace] = {}
        payloads: Dict[str, dict] = {}
        record_groups: List[Tuple[str, List[Tuple[str, SimulationPoint]]]] = []
        replay_groups: List[Tuple[str, List[Tuple[str, SimulationPoint]]]] = []
        for group_key, members in groups.items():
            trace = traces.get(group_key)
            if trace is None:
                record_groups.append((group_key, members))
            else:
                loaded[group_key] = trace
                replay_groups.append((group_key, members))
        counters["traces_recorded"] += len(record_groups)
        counters["traces_reused"] += len(replay_groups)

        def on_recorded(index: int, result) -> None:
            group_key, members = record_groups[index]
            trace, stats, record_seconds, point_seconds = result
            if isinstance(trace, dict):
                payloads[group_key] = trace
                trace = DecodedTrace.from_payload(trace)
            if trace is not None:  # None: a worker persisted it to disk
                traces.put(trace)
                loaded[group_key] = trace
            self.registry.histogram("trace.record_seconds").observe(
                record_seconds
            )
            first_key, first_point = members[0]
            record(first_key, first_point, stats, point_seconds)
            replay_groups.append((group_key, members[1:]))

        fan_out(
            [
                _RecordTask(point=members[0][1], cache_dir=cache_dir,
                            obs=worker_obs)
                for _, members in record_groups
            ],
            worker=lambda task: _record_group(task.point, telemetry),
            jobs=jobs,
            remote_worker=_record_remote,
            on_result=on_recorded,
        )

        # Chunk each group so it spreads across the workers, each of
        # which decodes or loads the trace once per chunk and keeps it
        # warm for later ones.  Inline tasks cost nothing to dispatch, so
        # jobs=1 records every point as soon as it finishes.
        batches: List[Tuple[_TraceBatch, List[Tuple[str, SimulationPoint]]]] = []
        for group_key, members in replay_groups:
            if not members:
                continue
            size = max(1, math.ceil(len(members) / jobs)) if jobs > 1 else 1
            payload = None
            if ship:
                payload = payloads.get(group_key) or loaded[group_key].to_payload()
            for start in range(0, len(members), size):
                part = members[start:start + size]
                batch = _TraceBatch(
                    points=tuple(point for _, point in part),
                    trace_key=group_key,
                    payload=payload,
                    cache_dir=cache_dir,
                    obs=worker_obs,
                )
                batches.append((batch, part))

        def replay_inline(batch: _TraceBatch) -> List[Tuple[SimulationStats, float]]:
            trace = loaded.get(batch.trace_key)
            if trace is None:  # recorded by a worker into the cache dir
                trace = _worker_trace(batch.trace_key, None, cache_dir,
                                      batch.points[0])
            return [_replay_timed(point, trace, telemetry)
                    for point in batch.points]

        def on_batch(index: int, results) -> None:
            _, part = batches[index]
            for (key, point), (stats, seconds) in zip(part, results):
                record(key, point, stats, seconds)

        fan_out(
            [batch for batch, _ in batches],
            worker=replay_inline,
            jobs=jobs,
            remote_worker=_batch_remote,
            on_result=on_batch,
        )
