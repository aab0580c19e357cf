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
* **in-flight points** submitted concurrently by different jobs are
  single-flighted — one job simulates, the others wait on the shared
  result and report the points as ``shared_inflight``;
* **points claimed by another replica** sharing the cache tree are
  awaited instead of re-executed (``remote_inflight``; see
  :mod:`repro.service.fleet` and the engine's store-level claims).

With N replicas over one ``--cache-dir`` the app also runs a fleet
control loop: jobs are executed under an expiring **lease** (at most
one replica runs a job; a crashed replica's jobs are stolen and re-run,
completed points being cache hits), a **heartbeat** thread renews
leases and publishes this replica's counters, and a **poller** thread
adopts jobs submitted to other replicas, refreshes job records this
replica is not running, and steals expired leases.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.chaos import seams as _seams
from repro.errors import ReproError
from repro.experiments.common import SimulationCache
from repro.experiments.scheduler import SweepEngine, dedupe_points
from repro.experiments.store import ResultStore
from repro.obs import prometheus as _prometheus
from repro.obs.context import TraceContext
from repro.obs.events import EventBus, EventLog
from repro.obs.metrics import MetricsRegistry, RateWindow
from repro.obs.telemetry import Telemetry
from repro.service import spec as spec_mod
from repro.service.fleet import (
    DEFAULT_LEASE_TTL,
    LeaseManager,
    ReplicaRegistry,
    default_replica_id,
)
from repro.service.jobs import (
    COMPLETED,
    DEFAULT_POISON_ATTEMPTS,
    FAILED,
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
METRICS_SCHEMA_VERSION = 1

#: Progress sink for one-line status messages.
ProgressCallback = Callable[[str], None]

#: How often the deadline watchdog re-checks running/queued jobs.
WATCHDOG_INTERVAL = 0.2

#: Point-counter families served under ``points`` in /metrics.  The
#: names and their order are part of the JSON contract (regression
#: tested against the historical payload shape).
_POINT_FIELDS = (
    "requested", "unique", "completed", "executed", "from_cache",
    "shared_inflight", "remote_inflight", "remote_reclaimed",
)

#: Subdirectory of the cache dir holding the telemetry event log.
EVENTS_SUBDIR = "events"


class _DeadlineExceeded(Exception):
    """Internal: raised out of ``on_point`` when a job's budget is gone."""


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
        claim_ttl: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
        poison_attempts: int = DEFAULT_POISON_ATTEMPTS,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if job_concurrency < 1:
            raise ValueError("job_concurrency must be at least 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if poison_attempts < 1:
            raise ValueError("poison_attempts must be at least 1")
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
        self.store = ResultStore(cache_dir=cache_dir, owner=self.replica_id)
        self.trace_store = TraceStore(cache_dir)
        self.store.set_observer(self._storage_observer("results"))
        self.trace_store.set_observer(self._storage_observer("traces"))
        engine_kwargs = {}
        if claim_ttl is not None:
            engine_kwargs["claim_ttl"] = claim_ttl
        self.engine = SweepEngine(
            store=self.store,
            jobs=jobs,
            trace_store=self.trace_store,
            telemetry=self.telemetry,
            **engine_kwargs,
        )
        self.job_store = JobStore(cache_dir)
        self.leases = LeaseManager(cache_dir, owner=self.replica_id, ttl=lease_ttl)
        self.replicas = ReplicaRegistry(cache_dir, replica_id=self.replica_id)
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
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        #: Validated plans of jobs admitted by *this* process; resumed
        #: jobs re-validate from their persisted spec instead.
        self._plans: Dict[str, spec_mod.JobPlan] = {}
        registry = self.telemetry.registry
        self._point_counters = {
            name: registry.counter(
                f"points.{name}", help=f"points {name} service-wide"
            )
            for name in _POINT_FIELDS
        }
        #: Backpressure: submissions beyond this queue depth are rejected
        #: with a structured 503 ``overloaded`` (``None`` = unbounded).
        self.max_queue_depth = max_queue_depth
        #: Execution attempts before a job is quarantined as poisonous.
        self.poison_attempts = poison_attempts
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
        for job in self.job_store.load_all():
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
            self.replicas.publish(self._snapshot())

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
        # A final snapshot so fleet metrics keep this replica's finished
        # work after it drains (stale snapshots stay in the totals).
        self.replicas.publish(self._snapshot())
        self.engine.close()
        # Flush the event log last so engine-drain spans land in it; the
        # log reopens transparently if this app is started again.
        self.telemetry.close()

    # ------------------------------------------------------------------
    # admission and queries
    # ------------------------------------------------------------------

    def submit(self, payload, trace: Optional[TraceContext] = None) -> Job:
        """Validate a submission and enqueue a job (raises ApiError).

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
        if plan.kind == "search":
            # A search plans its points rung by rung; admit it with the
            # first rung's size (the counters grow as rungs complete).
            requested = unique = plan.search.rung0_points()
        else:
            points = plan.plan_points()
            requested = len(points)
            unique = len(dedupe_points(points))
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
        with self._span_lock:
            self._queue_waits[job.id] = (queue_span, time.perf_counter())
        self._plans[job.id] = plan
        self.job_store.save(job)
        self.queue.add(job)
        self._say(
            f"job {job.id}: queued ({job.points['unique']} unique points, "
            f"priority {job.priority})"
        )
        return job

    def get_job(self, job_id: str) -> Job:
        job = self.queue.get(job_id)
        if job is None:
            raise ApiError(404, "job_not_found", f"no job with id {job_id!r}")
        return job

    def job_result(self, job_id: str, fmt: str = "json"):
        """The result payload of a completed job (dict for json, str for csv)."""
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
        if job.state != COMPLETED or job.result is None:
            raise ApiError(
                409, "job_not_completed",
                f"job {job_id} is {job.state}; results exist once it completes",
            )
        if fmt == "csv":
            return spec_mod.result_to_csv(job.result)
        return {"id": job.id, "version": __version__, "result": job.result}

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
            if not self.leases.acquire(
                job.id, trace_id=(job.trace or {}).get("trace_id")
            ):
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
                with self._running_lock:
                    self._running_ids.add(job.id)
                try:
                    self._run_job(job)
                finally:
                    with self._running_lock:
                        self._running_ids.discard(job.id)
                    self.telemetry.span_end(
                        "lease.hold", lease_span, started=lease_started,
                        job_id=job.id,
                    )
            finally:
                self.leases.release(job.id)

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
        *started* ``poison_attempts`` times is terminally failed with
        cause ``poisoned`` and its full record — fault history included —
        lands in ``jobs/quarantine/`` instead of ping-ponging between
        replicas forever.
        """
        if job.attempts < self.poison_attempts:
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
        """Renew held leases and publish this replica's counters."""
        interval = max(0.05, min(self.lease_ttl / 3.0, 2.0))
        while not self._stop.wait(interval):
            self.leases.renew_held()
            self.replicas.publish(self._snapshot())

    def _fleet_poll_loop(self) -> None:
        while not self._stop.wait(self.fleet_poll_interval):
            try:
                self._fleet_poll_once()
            except Exception as error:  # noqa: BLE001 - never kill the loop
                self._say(f"fleet poll error: {type(error).__name__}: {error}")

    def _fleet_poll_once(self) -> None:
        """Adopt, refresh and steal jobs from the shared job store."""
        with self._running_lock:
            running = set(self._running_ids)
        for disk_job in self.job_store.load_all():
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
                known = disk_job
            elif disk_job.state != known.state or (
                disk_job.points != known.points
            ):
                known.update_from(disk_job)
            if known.state == RUNNING and self.leases.holder(known.id) is None:
                self._steal(known)

    def _steal(self, job: Job) -> None:
        """Take over a job whose owner's lease expired (crashed replica).

        Mirrors the restart-resume semantics: the job is reset to queued
        and re-run from the top; points the dead replica completed are
        cache hits, so only the genuinely lost work is paid again.
        """
        if not self.leases.acquire(
            job.id, trace_id=(job.trace or {}).get("trace_id")
        ):
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
        try:
            plan = self._plans.pop(job.id, None)
            if plan is None:  # resumed from the job store after a restart
                plan = spec_mod.validate_submission(job.spec)

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
                # Persist progress (throttled) so other replicas' watch
                # requests see this job advance, not just start/finish.
                now = time.monotonic()
                if now - last_save[0] >= 0.5:
                    last_save[0] = now
                    self.job_store.save(job)

            with self.telemetry.span(
                "execute", parent=self._job_trace(job), job_id=job.id,
                job_kind=plan.kind, histogram="job.execute_seconds",
            ):
                if plan.kind == "search":
                    from repro.search.driver import run_search

                    job.points["requested"] = 0
                    job.points["unique"] = 0

                    def on_rung(_index: int, rung_counters: dict) -> None:
                        # Point totals grow rung by rung: the halving
                        # schedule decides the next rung's size only once
                        # this one is scored.
                        job.points["requested"] += rung_counters["requested"]
                        job.points["unique"] += rung_counters["unique"]
                        self.job_store.save(job)

                    report, counters = run_search(
                        plan.search, self.engine, progress=self.progress,
                        on_point=on_point, on_rung=on_rung,
                    )
                    result = {"kind": "search", "report": report}
                else:
                    points = plan.plan_points()
                    job.points["requested"] = len(points)
                    job.points["unique"] = len(dedupe_points(points))
                    counters = self.engine.execute(
                        points, progress=self.progress, on_point=on_point
                    )
                    if plan.kind == "figures":
                        cache = SimulationCache(plan.settings, store=self.store)
                        result = spec_mod.assemble_figure_result(plan, cache)
                    else:
                        result = spec_mod.assemble_points_result(plan, self.store)
            job.points["completed"] = counters["unique"]
            completed = job.mark_completed(result, counters)
            self._point_counters["unique"].inc(counters["unique"])
            self._point_counters["completed"].inc(counters["unique"])
            self._point_counters["executed"].inc(counters["executed"])
            self._point_counters["from_cache"].inc(counters["cached"])
            self._point_counters["shared_inflight"].inc(
                counters["shared_inflight"]
            )
            self._point_counters["remote_inflight"].inc(
                counters.get("remote_inflight", 0)
            )
            self._point_counters["remote_reclaimed"].inc(
                counters.get("remote_reclaimed", 0)
            )
            if completed:
                self._say(
                    f"job {job.id}: completed ({counters['executed']} executed, "
                    f"{counters['cached']} cached, "
                    f"{counters['shared_inflight']} shared in-flight, "
                    f"{counters.get('remote_inflight', 0)} remote in-flight)"
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
        except BrokenProcessPool as error:
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
        storage_stats = self.store.storage_stats()
        storage_read_only = bool(storage_stats.get("read_only", 0))
        storage_degraded = (
            storage_read_only or self.job_store.save_errors > 0
        )
        depth = self.queue.depth()
        queue_saturated = (
            self.max_queue_depth is not None
            and depth >= self.max_queue_depth
        )
        pool_resets = self.engine.totals().get("pool_resets", 0)
        components = {
            "storage": {
                "status": "degraded" if storage_degraded else "ok",
                "writable": not storage_read_only,
                "write_errors": (storage_stats.get("write_errors", 0)
                                 + self.job_store.save_errors),
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
            "uptime_seconds": self.uptime_seconds(),
            "jobs": self.queue.by_state(),
            "components": components,
            "chaos": _seams.installed(),
        }

    def _points_payload(self, uptime: float) -> dict:
        """The ``points`` metrics family, in its historical key order.

        ``per_minute`` is the **sliding 60 s window** rate (a long-lived
        replica's current throughput); ``per_minute_lifetime`` keeps the
        uptime-averaged figure the field used to carry.
        """
        points = {
            name: self._point_counters[name].int_value
            for name in _POINT_FIELDS
        }
        points["per_minute"] = self._rate_window.per_minute()
        points["per_minute_lifetime"] = (
            round(points["completed"] * 60.0 / uptime, 2) if uptime > 0 else 0.0
        )
        return points

    def _snapshot(self) -> dict:
        """This replica's publishable counter snapshot (see fleet)."""
        uptime = self.uptime_seconds()
        return {
            "points": self._points_payload(uptime),
            "jobs": self.queue.by_state(),
            "uptime_seconds": uptime,
            # Mergeable latency histograms (fixed bounds ⇒ exact fleet
            # percentiles; see ReplicaRegistry.fleet_metrics).
            "histograms": self.telemetry.registry.histogram_payloads(),
        }

    def metrics(self) -> dict:
        uptime = self.uptime_seconds()
        points = self._points_payload(uptime)
        # Publish before aggregating so the fleet section always includes
        # this replica's own up-to-date counters.
        self.replicas.publish(self._snapshot())
        result_cache = self.store.counters()
        trace_cache = self.trace_store.counters()
        engine_totals = self.engine.totals()
        by_state = self.queue.by_state()
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "version": __version__,
            "started_at": self.started_at,
            "uptime_seconds": uptime,
            "queue": {
                "depth": self.queue.depth(),
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
                **engine_totals,
            },
            "job_store": {
                "persistent": bool(self.job_store.job_dir),
                "quarantined": self.job_store.quarantined,
                "save_errors": self.job_store.save_errors,
            },
            "storage": {
                "results": self.store.storage_stats(),
                "traces": self.trace_store.storage_stats(),
            },
            "replica": {
                "id": self.replica_id,
                "lease_ttl": self.lease_ttl,
                "held_leases": len(self.leases.held()),
                "resumed_jobs": self.resumed_jobs,
                "adopted_jobs": self.adopted_jobs,
                "stolen_jobs": self.stolen_jobs,
            },
            "fleet": self.replicas.fleet_metrics(
                fresh_within=max(self.lease_ttl, 3.0)
            ),
        }

    def prometheus_text(self) -> str:
        """The registry as Prometheus text exposition (version 0.0.4).

        Registry-native instruments (counters, histograms) render as
        themselves; derived values the JSON endpoint computes on the fly
        (queue depth, cache hit counters, storage stats, job states) are
        mirrored into gauges first so the exposition is self-contained.
        """
        registry = self.telemetry.registry
        registry.gauge("uptime_seconds").set(self.uptime_seconds())
        registry.gauge("queue.depth").set(self.queue.depth())
        registry.gauge("points.per_minute").set(self._rate_window.per_minute())
        registry.gauge("replica.held_leases").set(len(self.leases.held()))
        for state, count in self.queue.by_state().items():
            registry.gauge(f"jobs.state.{state}").set(count)
        for family, values in (
            ("result_cache", self.store.counters()),
            ("trace_cache", self.trace_store.counters()),
            ("storage.results", self.store.storage_stats()),
            ("storage.traces", self.trace_store.storage_stats()),
            ("job_store", {"quarantined": self.job_store.quarantined,
                           "save_errors": self.job_store.save_errors}),
        ):
            for key, value in values.items():
                registry.gauge(f"{family}.{key}").set(value)
        return _prometheus.render(registry, replica=self.replica_id)
