"""The sweep service core: job admission, execution and metrics.

:class:`ServiceApp` is the whole service minus HTTP: it owns the shared
:class:`~repro.experiments.scheduler.SweepEngine` (one warm worker pool
and one result/trace cache for the service's lifetime), the job
registry/queue and the executor threads.  The HTTP layer
(:mod:`repro.service.server`) is a thin translation onto these methods,
which keeps every behaviour — admission errors, dedup, resume, drain —
testable without sockets.

Deduplication happens at two levels, both inherited from the engine:

* **completed points** are served from the ``ResultStore``/``TraceStore``
  (a re-submitted figure is ~instant, ``executed == 0``);
* **in-flight points** submitted concurrently by different jobs of this
  replica are single-flighted — one job simulates, the others wait on
  the shared result and report the points as ``shared_inflight``.

Replicas sharing a cache tree do not dedupe in-flight points with each
other: two of them running overlapping jobs may both simulate a point,
and both store the same bytes.

A figure or points plan whose every point is already stored skips the
queue altogether: :meth:`ServiceApp.submit` answers it on the request
thread, with no lease and one job-log record, the completed one.

Neither a job's plan nor its result is kept beside its record: every
job runs the plan re-derived from its persisted spec, and
:meth:`ServiceApp.job_result` renders a completed job's result from
that spec over the result store.  Both derivations are memoised by the
plan (its figures and settings), not by the job: planning process-wide
(:func:`repro.experiments.runner.plan_experiments`), rendering per app,
so a resubmitted figure plan is planned once and rendered once.

With N replicas over one ``--cache-dir`` the app also runs a fleet
control loop: jobs are executed under an expiring **lease** (at most
one replica runs a job; a crashed replica's jobs are stolen and re-run,
completed points being cache hits), a **heartbeat** thread renews
leases, and a **poller** thread adopts jobs submitted to other
replicas, refreshes job records this replica is not running, and
steals expired leases.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import BrokenExecutor
from datetime import datetime, timezone
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.chaos import seams as _seams
from repro.errors import ConfigurationError, ReproError
from repro.experiments.scheduler import SweepEngine, dedupe_points
from repro.experiments.store import ResultStore
from repro.obs import prometheus as _prometheus
from repro.obs.context import TraceContext
from repro.obs.events import EventBus, EventLog
from repro.obs.metrics import MetricsRegistry, RateWindow
from repro.obs.telemetry import Telemetry
from repro.service import spec as spec_mod
from repro.service.fleet import DEFAULT_LEASE_TTL, LeaseManager, default_replica_id
from repro.service.jobs import (
    COMPLETED,
    FAILED,
    POISON_ATTEMPTS,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    JobStore,
    new_job_id,
)
from repro.service.spec import ApiError
from repro.trace import TraceStore
from repro.version import __version__

#: Metrics/health payload schema; bump on layout changes.
METRICS_SCHEMA_VERSION = 4

#: Point counters served under ``points`` in /metrics.  The names and
#: their order are part of the JSON contract (regression tested against
#: the historical payload shape).
POINT_FIELDS = (
    "requested", "unique", "completed", "executed", "from_cache",
    "shared_inflight",
)

#: Progress sink for one-line status messages.
ProgressCallback = Callable[[str], None]

#: How often the deadline watchdog re-checks running/queued jobs.
WATCHDOG_INTERVAL = 0.2

#: Subdirectory of the cache dir holding the telemetry event log.
EVENTS_SUBDIR = "events"

#: Upper bound on the rendered figure results an app keeps (see
#: :meth:`ServiceApp.job_result`); a full table is cleared.
RESULT_MEMO_LIMIT = 64


class _DeadlineExceeded(Exception):
    """Internal: raised out of ``on_point`` when a job's budget is gone."""


def _family(values: Dict[str, float], prefix: str) -> Dict[str, float]:
    """The ``prefix.*`` values of a registry snapshot, prefix stripped."""
    head = prefix + "."
    return {k[len(head):]: v for k, v in values.items() if k.startswith(head)}


def _hit_rate(counters: Dict[str, int]) -> float:
    hits = counters.get("memory_hits", 0) + counters.get("disk_hits", 0)
    lookups = hits + counters.get("misses", 0)
    return round(hits / lookups, 4) if lookups else 0.0


class ServiceApp:
    """Long-lived sweep service over one shared :class:`SweepEngine`."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        job_concurrency: int = 1,
        progress: Optional[ProgressCallback] = None,
        replica_id: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        fleet_poll_interval: float = 1.0,
        max_queue_depth: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        # Checked before anything touches the cache directory.
        if jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        if job_concurrency < 1:
            raise ConfigurationError(
                f"job_concurrency must be at least 1, got {job_concurrency}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be at least 1, got {max_queue_depth}")
        self.cache_dir = cache_dir
        self.progress = progress
        self.replica_id = replica_id or default_replica_id()
        self.lease_ttl = lease_ttl
        self.fleet_poll_interval = fleet_poll_interval
        if telemetry is None:
            log = bus = None
            if cache_dir:
                log = EventLog(
                    os.path.join(cache_dir, EVENTS_SUBDIR),
                    source=f"service-{self.replica_id}",
                )
                bus = EventBus()
            telemetry = Telemetry(registry=MetricsRegistry(), log=log, bus=bus)
        #: The replica's observability bundle: metrics registry, on-disk
        #: event log (cache-dir backed) and the SSE ring buffer.
        self.telemetry = telemetry
        # Each counter owner is read only through the collector it
        # registers here, so the JSON and Prometheus renderings agree.
        registry = telemetry.registry
        self.store = ResultStore(cache_dir=cache_dir)
        self.trace_store = TraceStore(cache_dir)
        self.store.set_observer(self._storage_observer("results"))
        self.trace_store.set_observer(self._storage_observer("traces"))
        registry.register_collector(self.store.counters, "result_cache")
        registry.register_collector(self.trace_store.counters, "trace_cache")
        registry.register_collector(self.store.storage_stats, "storage.results")
        registry.register_collector(self.trace_store.storage_stats, "storage.traces")
        self.engine = SweepEngine(
            store=self.store,
            jobs=jobs,
            trace_store=self.trace_store,
            telemetry=self.telemetry,
        )
        self.job_store = JobStore(cache_dir)
        registry.register_collector(lambda: {
            "quarantined": self.job_store.quarantined,
            "save_errors": self.job_store.save_errors,
        }, "job_store")
        self.leases = LeaseManager(cache_dir, owner=self.replica_id, ttl=lease_ttl)
        self.queue = JobQueue()
        self.job_concurrency = job_concurrency
        self.started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        # The rate clock is monotonic: wall-clock (``started_at``) is for
        # display only, so an NTP step can never skew (or negate) the
        # points/min rate derived from uptime.  Injectable for tests.
        self._monotonic = time.monotonic
        self._started_clock = self._monotonic()
        # The lambda re-reads ``self._monotonic`` on every tick, so tests
        # that inject a fake clock after construction stay in control of
        # the sliding window too.
        self._rate_window = RateWindow(clock=lambda: self._monotonic())
        registry.register_collector(self._service_values)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._point_counters = {
            name: registry.counter(
                f"points.{name}", help=f"points {name} service-wide"
            )
            for name in POINT_FIELDS
        }
        #: Backpressure: submissions beyond this queue depth are rejected
        #: with a structured 503 ``overloaded`` (``None`` = unbounded).
        self.max_queue_depth = max_queue_depth
        # Fleet/robustness counters live in the registry; the public
        # ``app.stolen_jobs``-style names survive as read-only properties.
        self._resumed_jobs = registry.counter("jobs.resumed")
        self._adopted_jobs = registry.counter("jobs.adopted")
        self._stolen_jobs = registry.counter("jobs.stolen")
        self._poisoned_jobs = registry.counter("jobs.poisoned")
        self._deadline_failures = registry.counter("jobs.deadline_failures")
        self._rejected_overloaded = registry.counter("queue.rejected_overloaded")
        #: Pending queue-wait spans by job id: ``(span, perf_counter)``
        #: opened at admission, closed by the executor that picks the job
        #: up; plus the set of jobs whose root span already ended (the
        #: watchdog and the executor can both reach a terminal job).
        self._span_lock = threading.Lock()
        self._queue_waits: Dict[str, Tuple[TraceContext, float]] = {}
        self._ended_jobs: Set[str] = set()
        #: Job ids this replica is executing right now; the fleet poller
        #: never refreshes or steals a job its own executor owns.
        self._running_ids: set = set()
        self._running_lock = threading.Lock()
        #: Rendered figure results by (figures, settings).  They are
        #: read from this app's result store, so the memo is the app's.
        self._figure_results: Dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    # registry-backed counter views (historical attribute names)
    # ------------------------------------------------------------------

    @property
    def resumed_jobs(self) -> int:
        return self._resumed_jobs.int_value

    @property
    def adopted_jobs(self) -> int:
        return self._adopted_jobs.int_value

    @property
    def stolen_jobs(self) -> int:
        return self._stolen_jobs.int_value

    @property
    def poisoned_jobs(self) -> int:
        return self._poisoned_jobs.int_value

    @property
    def deadline_failures(self) -> int:
        return self._deadline_failures.int_value

    @property
    def rejected_overloaded(self) -> int:
        return self._rejected_overloaded.int_value

    # ------------------------------------------------------------------
    # telemetry plumbing
    # ------------------------------------------------------------------

    def _storage_observer(self, tier: str):
        """An ``(op, seconds)`` sink for one store's disk tier: observes
        the latency histogram and emits a matched storage span pair."""

        def observer(op: str, seconds: float) -> None:
            name = f"storage.{op}"
            self.telemetry.registry.histogram(
                f"{name}_seconds", help=f"sharded-store {op} latency"
            ).observe(seconds)
            span = self.telemetry.span_start(name, tier=tier)
            self.telemetry.span_end(name, span, duration_s=seconds, tier=tier)

        return observer

    def _job_trace(self, job: Job) -> Optional[TraceContext]:
        """The job's root span context (from its persisted record)."""
        return TraceContext.from_dict(job.trace)

    def _end_queue_wait(self, job: Job) -> None:
        with self._span_lock:
            entry = self._queue_waits.pop(job.id, None)
        if entry is not None:
            span, started = entry
            self.telemetry.span_end(
                "queue.wait", span, started=started, job_id=job.id
            )

    def _finish_job_telemetry(self, job: Job) -> None:
        """Terminal phase + root-span end for a job, exactly once.

        Both the executor and the deadline watchdog can drive a job
        terminal; whichever arrives second only cleans up the pending
        queue-wait span (if the job never reached an executor)."""
        if not job.terminal:
            return
        with self._span_lock:
            already_ended = job.id in self._ended_jobs
            self._ended_jobs.add(job.id)
        self._end_queue_wait(job)
        if already_ended:
            return
        trace = self._job_trace(job)
        self.telemetry.phase(job.id, job.state, trace=trace,
                             replica=self.replica_id)
        if trace is None:
            return  # pre-telemetry job record: no root span to close
        duration = None
        try:
            submitted = datetime.fromisoformat(job.submitted_at)
            if submitted.tzinfo is None:
                submitted = submitted.replace(tzinfo=timezone.utc)
            duration = max(
                0.0,
                (datetime.now(timezone.utc) - submitted).total_seconds(),
            )
        except (TypeError, ValueError):
            pass
        self.telemetry.span_end(
            "job", trace, duration_s=duration, job_id=job.id, state=job.state
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def start(self) -> None:
        """Load persisted jobs (resuming unfinished ones), start executors."""
        self._stop.clear()  # a stopped app can be started again
        for job in self.job_store.load_changed():
            resume = job.state in (QUEUED, RUNNING)
            if job.state == RUNNING:
                holder = self.leases.holder(job.id)
                if holder is not None and holder[0] != self.replica_id:
                    # Another replica of this cache tree is live and
                    # mid-job; register for status queries, don't touch.
                    self.queue.add(job, enqueue=False)
                    continue
                # The owning process died mid-job (no live lease); run it
                # again from the top — completed points are all cache
                # hits, so the rerun only pays for what was actually lost.
                job.record_fault("resume_requeue", "owner died mid-job",
                                 replica=self.replica_id)
                if self._poison_check(job):
                    self.queue.add(job, enqueue=False)
                    continue
                job.state = QUEUED
                job.started_at = None
                self.job_store.save(job)
            self.queue.add(job, enqueue=resume)
            if resume:
                self._resumed_jobs.inc()
                self.telemetry.phase(job.id, "resumed",
                                     trace=self._job_trace(job),
                                     replica=self.replica_id)
                self._say(f"resume: job {job.id} re-queued ({job.state})")
        if self.job_store.quarantined:
            self._say(
                f"job store: quarantined {self.job_store.quarantined} "
                f"unreadable job record(s)"
            )
        for index in range(self.job_concurrency):
            thread = threading.Thread(
                target=self._executor_loop,
                name=f"sweep-executor-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        watchdog = threading.Thread(
            target=self._watchdog_loop, name="deadline-watchdog", daemon=True
        )
        watchdog.start()
        self._threads.append(watchdog)
        if self.cache_dir:
            for name, target in (
                ("fleet-heartbeat", self._heartbeat_loop),
                ("fleet-poller", self._fleet_poll_loop),
            ):
                thread = threading.Thread(target=target, name=name, daemon=True)
                thread.start()
                self._threads.append(thread)

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the executors; with ``drain`` the running jobs finish first.

        Queued jobs are left in the (persistent) job store untouched —
        a later :meth:`start` on the same cache dir picks them up.
        """
        self._stop.set()
        if drain:
            for thread in self._threads:
                thread.join(timeout=timeout)
        self._threads = []
        self.engine.close()
        # Flush the event log last so engine-drain spans land in it; the
        # log reopens transparently if this app is started again.
        self.telemetry.close()

    # ------------------------------------------------------------------
    # admission and queries
    # ------------------------------------------------------------------

    def submit(self, payload, trace: Optional[TraceContext] = None) -> Job:
        """Validate a submission and enqueue a job (raises ApiError).

        A figure or points plan whose every unique point is stored is
        answered here instead, while the executors run (see
        :meth:`_answer`): the returned job is already terminal.
        ``trace`` is the client's context (parsed from ``X-Repro-Trace``
        by the HTTP layer, if sent); the job's root span is minted as its
        child, so a client-side trace id follows the job all the way to
        its last stored point.  Without one, a fresh trace is minted here.
        """
        if (self.max_queue_depth is not None
                and self.queue.depth() >= self.max_queue_depth):
            self._rejected_overloaded.inc()
            raise ApiError(
                503, "overloaded",
                f"job queue is full ({self.queue.depth()} waiting, "
                f"cap {self.max_queue_depth}); retry after the backlog "
                f"drains",
                retry_after=2.0,
            )
        plan = spec_mod.validate_submission(payload)
        job = Job(
            id=new_job_id(),
            spec=plan.spec,
            priority=int(plan.spec.get("priority", 0)),
        )
        points = plan.plan_points()
        keys = dedupe_points(points)
        requested = len(points)
        unique = len(keys)
        # Answered here only while executors run: before start() or
        # during a drain, a job must wait in the queue like any other.
        stored = (bool(self._threads) and not self._stop.is_set()
                  and all(self.store.peek(key) is not None for key in keys))
        job.points["requested"] = requested
        job.points["unique"] = unique
        self._point_counters["requested"].inc(requested)
        job_span = self.telemetry.span_start(
            "job", parent=trace, job_id=job.id, job_kind=plan.kind
        )
        job.trace = job_span.to_dict()
        self.telemetry.phase(job.id, "queued", trace=job_span,
                             unique_points=unique, priority=job.priority)
        queue_span = self.telemetry.span_start(
            "queue.wait", parent=job_span, job_id=job.id
        )
        queued_at = time.perf_counter()
        if stored:
            self.telemetry.span_end(
                "queue.wait", queue_span, started=queued_at, job_id=job.id
            )
            self._answer(job, plan)
            return job
        with self._span_lock:
            self._queue_waits[job.id] = (queue_span, queued_at)
        self.job_store.save(job)
        self.queue.add(job)
        self._say(
            f"job {job.id}: queued ({job.points['unique']} unique points, "
            f"priority {job.priority})"
        )
        return job

    def _answer(self, job: Job, plan: spec_mod.JobPlan) -> None:
        """Run a fully stored plan on the request thread.

        The job takes no queue slot and no lease, and its one job-log
        record is the terminal one.  A lease only keeps other replicas
        from stealing a job with a persisted ``running`` record; this job
        never persists ``running``, so other replicas first see it
        finished.  Admission's ``peek`` decoded every point into the
        result store's memory tier, which evicts nothing, so the
        execution here reads them all back and simulates none.
        """
        with self._running(job):
            self.queue.add(job, enqueue=False)
            job.mark_running()
            self.telemetry.phase(job.id, "running", trace=self._job_trace(job),
                                 replica=self.replica_id)
            self._settle(job, lambda: self._execute(
                job, plan, self._point_hook(job, persist=False)
            ))

    def get_job(self, job_id: str) -> Job:
        job = self.queue.get(job_id)
        if job is None:
            raise ApiError(404, "job_not_found", f"no job with id {job_id!r}")
        return job

    def job_result(self, job_id: str, fmt: str = "json"):
        """The result payload of a completed job (dict for json, str for csv).

        The result is rendered from the job's spec over the result store,
        so a restarted or adopting replica answers with the same bytes.
        A figure result is rendered once per distinct plan and kept; the
        stored points decide it and never change, so a later job of the
        same plan is answered with the kept payload (treat it as
        read-only).  Every call first checks that the plan's points are
        still stored: a completed job whose points are not all stored
        answers ``409 result_unavailable``.
        """
        if fmt not in ("json", "csv"):
            raise ApiError(400, "bad_format",
                           f"unsupported result format {fmt!r} (json or csv)")
        job = self.get_job(job_id)
        if job.state == FAILED:
            error = job.error or {}
            raise ApiError(
                409, "job_failed",
                f"job {job_id} failed: "
                f"[{error.get('code', 'unknown')}] {error.get('message', '')}",
            )
        if job.state != COMPLETED:
            raise ApiError(
                409, "job_not_completed",
                f"job {job_id} is {job.state}; results exist once it completes",
            )
        plan = spec_mod.validate_submission(job.spec)
        missing = sum(1 for key in dedupe_points(plan.plan_points())
                      if self.store.peek(key) is None)
        if missing:
            raise ApiError(
                409, "result_unavailable",
                f"job {job_id} completed, but {missing} of its points are no "
                f"longer stored; re-submit the job to recompute them",
            )
        if plan.kind == "figures":
            key = (tuple(plan.figures), plan.settings)
            result = self._figure_results.get(key)
            if result is None:
                result = spec_mod.assemble_figure_result(plan, self.store)
                if len(self._figure_results) >= RESULT_MEMO_LIMIT:
                    self._figure_results.clear()
                self._figure_results[key] = result
        else:
            result = spec_mod.assemble_points_result(plan, self.store)
        if fmt == "csv":
            return spec_mod.result_to_csv(result)
        return {"id": job.id, "version": __version__, "result": result}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _executor_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.next_job(timeout=0.2)
            if job is None:
                continue
            if job.terminal:  # defensively skip stale queue entries
                continue
            if not self.leases.acquire(job.id):
                # Another replica is running this job; our poller will
                # refresh its record (and steal it if that replica dies).
                continue
            try:
                # Read-through under the lease: another replica may have
                # finished (or re-shaped) the job since we enqueued it.
                latest = self.job_store.load(job.id)
                if latest is not None:
                    job.update_from(latest)
                if job.terminal:
                    self._finish_job_telemetry(job)
                    continue
                self._end_queue_wait(job)
                trace = self._job_trace(job)
                self.telemetry.phase(job.id, "leased", trace=trace,
                                     replica=self.replica_id)
                lease_span = self.telemetry.span_start(
                    "lease.hold", parent=trace, job_id=job.id
                )
                lease_started = time.perf_counter()
                try:
                    with self._running(job):
                        self._run_job(job)
                finally:
                    self.telemetry.span_end(
                        "lease.hold", lease_span, started=lease_started,
                        job_id=job.id,
                    )
            finally:
                self.leases.release(job.id)

    @contextlib.contextmanager
    def _running(self, job: Job) -> Iterator[None]:
        """Mark ``job`` as executed here: the fleet poller neither
        refreshes nor steals it meanwhile."""
        with self._running_lock:
            self._running_ids.add(job.id)
        try:
            yield
        finally:
            with self._running_lock:
                self._running_ids.discard(job.id)

    # ------------------------------------------------------------------
    # deadlines and poison quarantine
    # ------------------------------------------------------------------

    def _deadline_remaining(self, job: Job) -> Optional[float]:
        """Seconds left in the job's ``deadline_s`` budget; ``None`` when
        the job has no deadline.  Anchored at submission, so the budget
        covers queueing time, retries and steals — a job cannot dodge
        its deadline by ping-ponging between replicas."""
        deadline_s = (job.spec or {}).get("deadline_s")
        if isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float)):
            return None
        try:
            submitted = datetime.fromisoformat(job.submitted_at)
        except (TypeError, ValueError):
            return None
        if submitted.tzinfo is None:
            submitted = submitted.replace(tzinfo=timezone.utc)
        elapsed = (datetime.now(timezone.utc) - submitted).total_seconds()
        return float(deadline_s) - elapsed

    def _watchdog_loop(self) -> None:
        """Fail jobs past their deadline even when their executor hangs.

        The executor checks the deadline between points, but a *hung*
        worker never reaches the next point — this loop is the backstop
        that still fails the job (first terminal mark wins; the sticky
        ``mark_failed`` makes the race with a late executor harmless)
        and releases the lease so nothing steals a terminal job.
        """
        while not self._stop.wait(WATCHDOG_INTERVAL):
            for job in self.queue.jobs():
                if job.terminal:
                    continue
                remaining = self._deadline_remaining(job)
                if remaining is None or remaining > 0:
                    continue
                if job.mark_failed(
                    "deadline_exceeded",
                    f"job exceeded its {(job.spec or {}).get('deadline_s')}s "
                    f"deadline",
                ):
                    job.record_fault("deadline_exceeded",
                                     replica=self.replica_id)
                    self._deadline_failures.inc()
                    self.job_store.save(job)
                    self.leases.release(job.id)
                    self._finish_job_telemetry(job)
                    self._say(f"job {job.id}: failed [deadline_exceeded]")

    def _poison_check(self, job: Job) -> bool:
        """Quarantine a job that keeps dying mid-run; ``True`` if it was.

        Called wherever a job is about to be re-queued for another
        attempt (steal, crash-resume).  A job whose execution already
        *started* :data:`POISON_ATTEMPTS` times is terminally failed with
        cause ``poisoned`` and its full record — fault history included —
        lands in ``jobs/quarantine/`` instead of ping-ponging between
        replicas forever.
        """
        if job.attempts < POISON_ATTEMPTS:
            return False
        if job.mark_failed(
            "poisoned",
            f"job kept dying mid-run; quarantined after {job.attempts} "
            f"attempts (see fault_history)",
        ):
            self._poisoned_jobs.inc()
            self.job_store.quarantine_job(job)
            self.leases.release(job.id)
            self._finish_job_telemetry(job)
            self._say(
                f"fleet: quarantined poison job {job.id} after "
                f"{job.attempts} attempts"
            )
        return True

    # ------------------------------------------------------------------
    # fleet control loops
    # ------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        """Renew held leases."""
        interval = max(0.05, min(self.lease_ttl / 3.0, 2.0))
        while not self._stop.wait(interval):
            self.leases.renew_held()

    def _fleet_poll_loop(self) -> None:
        while not self._stop.wait(self.fleet_poll_interval):
            try:
                self._fleet_poll_once()
            except Exception as error:  # noqa: BLE001 - never kill the loop
                self._say(f"fleet poll error: {type(error).__name__}: {error}")

    def _fleet_poll_once(self) -> None:
        """Adopt and refresh changed job records; steal expired leases.

        Only records written since the last poll are decoded; a job that
        stays running elsewhere is watched for steals from the queue's
        in-memory copy.
        """
        with self._running_lock:
            running = set(self._running_ids)
        for disk_job in self.job_store.load_changed():
            if disk_job.id in running:
                continue  # our executor's copy is authoritative
            known = self.queue.get(disk_job.id)
            if known is None:
                # Submitted to another replica: adopt it.  Queued jobs
                # enter our queue too — the lease decides who runs them.
                self.queue.add(disk_job, enqueue=disk_job.state == QUEUED)
                self._adopted_jobs.inc()
                if disk_job.state == QUEUED:
                    self._say(f"fleet: adopted queued job {disk_job.id}")
            elif disk_job.state != known.state or (
                disk_job.points != known.points
            ):
                known.update_from(disk_job)
        for job in self.queue.jobs():
            if job.state != RUNNING:
                continue
            with self._running_lock:
                if job.id in self._running_ids:
                    continue
            if self.leases.holder(job.id) is None:
                self._steal(job)

    def _steal(self, job: Job) -> None:
        """Take over a job whose owner's lease expired (crashed replica).

        Mirrors the restart-resume semantics: the job is reset to queued
        and re-run from the top; points the dead replica completed are
        cache hits, so only the genuinely lost work is paid again.
        """
        if not self.leases.acquire(job.id):
            return  # someone else (or a revived owner) beat us to it
        try:
            latest = self.job_store.load(job.id)
            if latest is not None:
                job.update_from(latest)
            if job.state != RUNNING:
                return
            job.record_fault("lease_expired", "owner stopped heartbeating",
                             replica=self.replica_id)
            if self._poison_check(job):
                return
            job.state = QUEUED
            job.started_at = None
            self.job_store.save(job)
            self.queue.add(job, enqueue=True)
            self._stolen_jobs.inc()
            self.telemetry.phase(job.id, "stolen", trace=self._job_trace(job),
                                 replica=self.replica_id)
            self._say(f"fleet: stole job {job.id} (owner lease expired)")
        finally:
            self.leases.release(job.id)

    def _run_job(self, job: Job) -> None:
        remaining = self._deadline_remaining(job)
        if remaining is not None and remaining <= 0:
            # Spent its whole budget queueing; never start it.
            if job.mark_failed(
                "deadline_exceeded",
                f"job exceeded its {(job.spec or {}).get('deadline_s')}s "
                f"deadline before starting",
            ):
                job.record_fault("deadline_exceeded", replica=self.replica_id)
                self._deadline_failures.inc()
                self.job_store.save(job)
                self._finish_job_telemetry(job)
            return
        job.mark_running()
        self.job_store.save(job)
        self.telemetry.phase(job.id, "running", trace=self._job_trace(job),
                             replica=self.replica_id)
        self._say(f"job {job.id}: running")

        self._settle(job, lambda: self._execute(
            job, spec_mod.validate_submission(job.spec),
            self._point_hook(job, persist=True),
        ))

    def _point_hook(self, job: Job, persist: bool) -> Callable[[object], None]:
        """The engine's per-point callback for ``job``: stop at the
        deadline, count the point and, with ``persist``, save progress
        (throttled) so other replicas' watch requests see the job
        advance, not just start and finish."""
        last_save = [time.monotonic()]

        def on_point(_point) -> None:
            if job.terminal:
                # The deadline watchdog already failed this job; stop
                # burning simulation time on a dead record.
                raise _DeadlineExceeded()
            left = self._deadline_remaining(job)
            if left is not None and left <= 0:
                raise _DeadlineExceeded()
            job.points["completed"] += 1
            self._rate_window.record(1)
            now = time.monotonic()
            if persist and now - last_save[0] >= 0.5:
                last_save[0] = now
                self.job_store.save(job)

        return on_point

    def _execute(self, job: Job, plan: spec_mod.JobPlan,
                 on_point: Callable[[object], None]) -> dict:
        """The ``execute`` span of a job: the engine call.  Returns the
        engine counters."""
        with self.telemetry.span(
            "execute", parent=self._job_trace(job), job_id=job.id,
            job_kind=plan.kind, histogram="job.execute_seconds",
        ):
            points = plan.plan_points()
            job.points["requested"] = len(points)
            job.points["unique"] = len(dedupe_points(points))
            return self.engine.execute(
                points, progress=self.progress, on_point=on_point
            )

    def _settle(self, job: Job, run: Callable[[], dict]) -> None:
        """Call ``run`` (an :meth:`_execute` step) and record how the job
        ended: point counters and the completed mark, or the failure code
        of what ``run`` raised; then the final save and the job's
        terminal telemetry."""
        try:
            counters = run()
            job.points["completed"] = counters["unique"]
            completed = job.mark_completed(counters)
            self._point_counters["unique"].inc(counters["unique"])
            self._point_counters["completed"].inc(counters["unique"])
            self._point_counters["executed"].inc(counters["executed"])
            self._point_counters["from_cache"].inc(counters["cached"])
            self._point_counters["shared_inflight"].inc(
                counters["shared_inflight"]
            )
            if completed:
                self._say(
                    f"job {job.id}: completed ({counters['executed']} executed, "
                    f"{counters['cached']} cached, "
                    f"{counters['shared_inflight']} shared in-flight)"
                )
        except _DeadlineExceeded:
            if job.mark_failed(
                "deadline_exceeded",
                f"job exceeded its {(job.spec or {}).get('deadline_s')}s "
                f"deadline mid-run",
            ):
                job.record_fault("deadline_exceeded", replica=self.replica_id)
                self._deadline_failures.inc()
        except ApiError as error:
            job.mark_failed(error.code, error.message)
        except BrokenExecutor as error:
            # The engine's worker pool is the only executor that breaks.
            job.mark_failed(
                "worker_crashed",
                f"a simulation worker process died mid-job: {error} "
                f"(the warm pool was reset; re-submit to retry)",
            )
        except ReproError as error:
            job.mark_failed("execution_error", str(error))
        except Exception as error:  # noqa: BLE001 - jobs must never wedge the loop
            job.mark_failed("internal_error", f"{type(error).__name__}: {error}")
        finally:
            if job.state == FAILED:
                error = job.error or {}
                self._say(
                    f"job {job.id}: failed [{error.get('code')}] "
                    f"{error.get('message')}"
                )
            self.job_store.save(job)
            self._finish_job_telemetry(job)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def uptime_seconds(self) -> float:
        return round(self._monotonic() - self._started_clock, 1)

    @property
    def stopping(self) -> bool:
        """Whether a stop/drain has been requested (streams check this)."""
        return self._stop.is_set()

    def health(self) -> dict:
        """Liveness plus per-component state.

        ``status`` is ``"ok"`` when every component is, ``"degraded"``
        when any component is impaired but the service still answers
        (read-only storage, saturated queue) — distinct from *down*,
        which a client only ever observes as a connection failure.
        """
        values = self.telemetry.registry.collect()
        stores = ("storage.results", "storage.traces")
        storage_read_only = any(values.get(f"{store}.read_only", 0) for store in stores)
        write_errors = values["job_store.save_errors"] + sum(
            values.get(f"{store}.write_errors", 0) for store in stores
        )
        storage_degraded = storage_read_only or write_errors > 0
        depth = values["queue.depth"]
        queue_saturated = (
            self.max_queue_depth is not None
            and depth >= self.max_queue_depth
        )
        pool_resets = self.engine.totals().get("pool_resets", 0)
        components = {
            "storage": {
                "status": "degraded" if storage_degraded else "ok",
                "writable": not storage_read_only,
                "write_errors": write_errors,
            },
            "pool": {
                # The warm pool self-heals (a broken pool is torn down
                # and rebuilt), so resets are a health *signal*, not a
                # degradation by themselves.
                "status": "ok",
                "resets": pool_resets,
            },
            "queue": {
                "status": "saturated" if queue_saturated else "ok",
                "depth": depth,
                "max_depth": self.max_queue_depth,
            },
        }
        degraded = storage_degraded or queue_saturated
        return {
            "status": "degraded" if degraded else "ok",
            "version": __version__,
            "started_at": self.started_at,
            "uptime_seconds": values["uptime_seconds"],
            "jobs": _family(values, "jobs.state"),
            "components": components,
            "chaos": _seams.installed(),
        }

    def _service_values(self) -> Dict[str, float]:
        """Collector for the queue, leases and clocks."""
        values: Dict[str, float] = {"queue.depth": self.queue.depth()}
        for state, count in self.queue.by_state().items():
            values[f"jobs.state.{state}"] = count
        values["replica.held_leases"] = len(self.leases.held())
        values["uptime_seconds"] = self.uptime_seconds()
        values["points.per_minute"] = self._rate_window.per_minute()
        return values

    def metrics(self) -> dict:
        """This replica's registry as JSON.

        ``points.per_minute`` is the **sliding 60 s window** rate (a
        long-lived replica's current throughput); ``per_minute_lifetime``
        keeps the uptime-averaged figure the field used to carry.
        Fleet-wide totals are the sum of every replica's ``/metrics``.
        """
        values = self.telemetry.registry.collect()
        uptime = values["uptime_seconds"]
        points = {
            name: self._point_counters[name].int_value
            for name in POINT_FIELDS
        }
        points["per_minute"] = values["points.per_minute"]
        points["per_minute_lifetime"] = (
            round(points["completed"] * 60.0 / uptime, 2) if uptime > 0 else 0.0
        )
        result_cache = _family(values, "result_cache")
        trace_cache = _family(values, "trace_cache")
        by_state = _family(values, "jobs.state")
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "version": __version__,
            "started_at": self.started_at,
            "uptime_seconds": uptime,
            "queue": {
                "depth": values["queue.depth"],
                "max_depth": self.max_queue_depth,
                "rejected_overloaded": self.rejected_overloaded,
            },
            "jobs": {**by_state, "total": sum(by_state.values()),
                     "resumed": self.resumed_jobs,
                     "poisoned": self.poisoned_jobs,
                     "deadline_failures": self.deadline_failures},
            "points": points,
            "result_cache": {**result_cache, "hit_rate": _hit_rate(result_cache)},
            "trace_cache": {**trace_cache, "hit_rate": _hit_rate(trace_cache)},
            "engine": {
                "jobs": self.engine.jobs,
                "job_concurrency": self.job_concurrency,
                **self.engine.totals(),
            },
            "job_store": {
                "persistent": bool(self.job_store.job_dir),
                **_family(values, "job_store"),
            },
            "storage": {
                "results": _family(values, "storage.results"),
                "traces": _family(values, "storage.traces"),
            },
            "replica": {
                "id": self.replica_id,
                "lease_ttl": self.lease_ttl,
                "held_leases": values["replica.held_leases"],
                "resumed_jobs": self.resumed_jobs,
                "adopted_jobs": self.adopted_jobs,
                "stolen_jobs": self.stolen_jobs,
            },
        }

    def prometheus_text(self) -> str:
        """The registry as Prometheus text exposition (version 0.0.4):
        its instruments plus one snapshot of its collectors."""
        return _prometheus.render(self.telemetry.registry, replica=self.replica_id)
