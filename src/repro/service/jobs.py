"""Job model, priority queue and the schema-versioned job store.

A *job* is one submitted sweep: either a named figure plan plus
settings, or an explicit list of simulation points.  Jobs move through
``queued -> running -> completed | failed``; every transition is
appended to the job log (a segment-log store under ``jobs/``) so a
restarted service resumes exactly where the previous process stopped —
``queued`` jobs re-enter the queue, and jobs that were ``running`` when
the process died are re-queued rather than lost.

A record that does not decode (schema or id mismatch) is skipped and
counted as **quarantined**, mirroring the
:class:`~repro.trace.store.TraceStore` convention that a bad cache
entry is a miss, never a crash; a torn log tail loses only the
transition being written.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import queue
import threading
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Optional

from repro.chaos import seams as _seams
from repro.storage import ShardedStore
from repro.version import __version__

#: Bump when the job record layout changes; mismatching records are
#: quarantined as misses rather than errors.
SCHEMA_VERSION = 1

#: Subdirectory of the cache dir reserved for job records.
JOB_SUBDIR = "jobs"

#: Subdirectory of the job dir holding poisoned jobs' post-mortem records.
QUARANTINE_SUBDIR = "quarantine"

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

STATES = (QUEUED, RUNNING, COMPLETED, FAILED)

#: States a job can never leave.
TERMINAL_STATES = (COMPLETED, FAILED)

#: Fault-history entries kept per job (oldest dropped beyond this).
FAULT_HISTORY_LIMIT = 20

#: Execution attempts (first run + re-queues/steals) before a job is
#: declared poisonous and quarantined instead of retried again.
DEFAULT_POISON_ATTEMPTS = 3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One submitted sweep and everything the API reports about it."""

    id: str
    spec: dict
    priority: int = 0
    state: str = QUEUED
    submitted_at: str = field(default_factory=_now)
    started_at: Optional[str] = None
    finished_at: Optional[str] = None
    #: Point accounting: ``requested``/``unique`` are known at admission,
    #: ``completed`` grows while the job runs.
    points: Dict[str, int] = field(default_factory=lambda: {
        "requested": 0, "unique": 0, "completed": 0,
    })
    #: The scheduler summary of the finished run (cache hits, executed,
    #: traces recorded/reused, ...).
    counters: Optional[dict] = None
    error: Optional[dict] = None
    result: Optional[dict] = None
    #: Trace context of the job's root span (``{"trace_id", "span_id"}``),
    #: minted at admission (or propagated from the client's
    #: ``X-Repro-Trace`` header) and persisted so every replica that
    #: touches the job — adopter, thief, resumer — emits spans into the
    #: same trace.
    trace: Optional[dict] = None
    #: Times execution has *started* for this job — the first run and
    #: every re-queue after a crash/steal each count one.  Drives the
    #: poison-job quarantine threshold.
    attempts: int = 0
    #: Bounded, append-only log of what went wrong along the way
    #: (steals, crashes, deadline kills), persisted with the record so a
    #: quarantined job carries its own post-mortem.
    fault_history: List[dict] = field(default_factory=list)
    #: Guards terminal transitions: a deadline watchdog and the executor
    #: may race to finish one job — first terminal mark wins, later ones
    #: are no-ops.  Not part of the persisted record.
    _state_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ------------------------------------------------------------------

    def mark_running(self) -> None:
        with self._state_lock:
            self.state = RUNNING
            self.started_at = _now()
            self.attempts += 1

    def mark_completed(self, result: dict, counters: dict) -> bool:
        """Complete the job; ``False`` (no-op) if already terminal."""
        with self._state_lock:
            if self.state in TERMINAL_STATES:
                return False
            # Publish the payload before flipping the state: readers in
            # other threads treat a terminal state as "the result is
            # there".
            self.result = result
            self.counters = counters
            self.finished_at = _now()
            self.state = COMPLETED
            return True

    def mark_failed(self, code: str, message: str) -> bool:
        """Fail the job; ``False`` (no-op) if already terminal."""
        with self._state_lock:
            if self.state in TERMINAL_STATES:
                return False
            self.error = {"code": code, "message": message}
            self.finished_at = _now()
            self.state = FAILED
            return True

    def record_fault(self, event: str, detail: str = "",
                     replica: Optional[str] = None) -> None:
        """Append one structured entry to the job's fault history."""
        entry = {"at": _now(), "event": event}
        if detail:
            entry["detail"] = detail
        if replica:
            entry["replica"] = replica
        with self._state_lock:
            self.fault_history.append(entry)
            if len(self.fault_history) > FAULT_HISTORY_LIMIT:
                del self.fault_history[: -FAULT_HISTORY_LIMIT]

    def update_from(self, other: "Job") -> None:
        """Adopt another replica's persisted view of this same job.

        The in-memory registry hands out `Job` object references, so a
        cross-replica refresh must mutate in place rather than swap the
        object.  Only ever called for jobs this replica is *not*
        currently running (the runner's own copy is authoritative).
        """
        if other.id != self.id:
            raise ValueError("refusing to update a job from a different id")
        self.spec = other.spec
        self.priority = other.priority
        self.state = other.state
        self.submitted_at = other.submitted_at
        self.started_at = other.started_at
        self.finished_at = other.finished_at
        self.points = dict(other.points)
        self.counters = other.counters
        self.error = other.error
        self.result = other.result
        self.attempts = other.attempts
        self.fault_history = list(other.fault_history)
        if other.trace is not None:
            self.trace = dict(other.trace)

    # ------------------------------------------------------------------

    def to_dict(self, include_result: bool = False) -> dict:
        payload = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "spec": self.spec,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "points": dict(self.points),
            "counters": self.counters,
            "error": self.error,
            "attempts": self.attempts,
            "fault_history": list(self.fault_history),
            "trace": self.trace,
        }
        if include_result:
            payload["result"] = self.result
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        if payload.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported job schema {payload.get('schema')!r}"
            )
        job_id = payload["id"]
        state = payload["state"]
        if not isinstance(job_id, str) or state not in STATES:
            raise ValueError("malformed job record")
        points = payload.get("points") or {}
        return cls(
            id=job_id,
            spec=dict(payload.get("spec") or {}),
            priority=int(payload.get("priority", 0)),
            state=state,
            submitted_at=str(payload.get("submitted_at", "")),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            points={
                "requested": int(points.get("requested", 0)),
                "unique": int(points.get("unique", 0)),
                "completed": int(points.get("completed", 0)),
            },
            counters=payload.get("counters"),
            error=payload.get("error"),
            result=payload.get("result"),
            # Pre-resilience records carry neither field; defaulting
            # keeps SCHEMA_VERSION at 1 and old files loadable.
            attempts=int(payload.get("attempts", 0)),
            fault_history=list(payload.get("fault_history") or []),
            trace=(payload.get("trace")
                   if isinstance(payload.get("trace"), dict) else None),
        )


# ----------------------------------------------------------------------
# on-disk store
# ----------------------------------------------------------------------


class JobStore:
    """Job records as one segment log under ``<cache-dir>/jobs/``.

    Every save appends the job's full JSON record to a single-shard
    :class:`~repro.storage.ShardedStore` keyed by job id (crc framing,
    torn-tail recovery and compaction come with it); the latest record
    of an id wins.  Without a ``cache_dir`` the store is memory-less:
    saves are no-ops and nothing loads, so a cache-less service simply
    has no persistence (jobs die with the process, by design).
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self.job_dir = os.path.join(cache_dir, JOB_SUBDIR) if cache_dir else None
        self._log = ShardedStore(self.job_dir, num_shards=1) if self.job_dir else None
        #: Records skipped because they do not decode (schema or id
        #: mismatch), plus poisoned jobs landed in ``quarantine/``.
        self.quarantined = 0
        #: Persist attempts dropped because the disk was full; the job
        #: lives on in memory, so a full disk degrades durability (a
        #: restart forgets recent transitions) without failing jobs.
        self.save_errors = 0
        #: job id -> version stamp of the record :meth:`load_changed`
        #: last decoded.
        self._seen: Dict[str, tuple] = {}

    # ------------------------------------------------------------------

    def save(self, job: Job) -> None:
        """Append one job record (no-op without a dir).

        ENOSPC is absorbed: the write is dropped and counted in
        ``save_errors`` rather than failing the job — the in-memory
        record stays authoritative for this process's lifetime.  Once
        the log has degraded to read-only every save is such a drop.
        """
        if self._log is None:
            return
        try:
            if _seams.active is not None:
                _seams.active.fire("jobs.save", job_id=job.id,
                                   state=job.state)
            self._log.put(job.id, json.dumps(
                job.to_dict(include_result=True), default=str
            ).encode("utf-8"))
            dropped = self._log.read_only
        except OSError as error:
            if error.errno != errno.ENOSPC:
                raise
            dropped = True
        if dropped:
            self.save_errors += 1

    def _decode(self, job_id: str) -> Optional[Job]:
        """The stored record of ``job_id``; ``None`` if it does not decode
        to a job of that id."""
        data = self._log.get(job_id)  # type: ignore[union-attr]
        try:
            job = Job.from_dict(json.loads(data))
        except (ValueError, KeyError, TypeError):
            return None
        return job if job.id == job_id else None

    def load(self, job_id: str) -> Optional[Job]:
        """The latest record of one job, including saves made by other
        processes since this store last looked; ``None`` when missing or
        unreadable.  Only the id's own shard is refreshed, so the cost
        does not grow with the number of jobs."""
        if self._log is None or self._log.version(job_id) is None:
            return None
        return self._decode(job_id)

    def load_changed(self) -> List[Job]:
        """Jobs whose record changed since the previous call, oldest
        submission first — every job on the first call.

        This is the one read path of startup resume and the fleet
        poller.  The log's index stamps each key's latest record, so an
        unchanged job is skipped without being read.  A record that does
        not decode (schema or id mismatch) is skipped and counted in
        ``quarantined`` — a bad record is a miss, never a crash.
        """
        if self._log is None:
            return []
        jobs: List[Job] = []
        for job_id, version in self._log.versions().items():
            if self._seen.get(job_id) == version:
                continue
            self._seen[job_id] = version
            job = self._decode(job_id)
            if job is None:
                self.quarantined += 1
            else:
                jobs.append(job)
        jobs.sort(key=lambda job: job.submitted_at)
        return jobs

    def quarantine_job(self, job: Job) -> None:
        """Land a poisonous job's full record in ``jobs/quarantine/``.

        Called after the job has been terminally failed (cause
        ``poisoned``): the record — fault history included — is written
        to ``quarantine/<id>.json`` as a post-mortem, and the terminal
        record is saved to the log too, so no replica's resume/steal
        path will ever pick the job up again while status queries keep
        answering after a restart.
        """
        if not self.job_dir:
            return
        quarantine_dir = os.path.join(self.job_dir, QUARANTINE_SUBDIR)
        try:
            os.makedirs(quarantine_dir, exist_ok=True)
            target = os.path.join(quarantine_dir, f"{job.id}.json")
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(job.to_dict(include_result=True),
                                        default=str))
        except OSError:
            # Quarantine-on-a-full-disk still works in memory: the job
            # is terminally failed either way.
            pass
        self.quarantined += 1
        self.save(job)


# ----------------------------------------------------------------------
# in-memory registry + priority queue
# ----------------------------------------------------------------------


class JobQueue:
    """Thread-safe job registry with a priority dispatch queue.

    Higher ``priority`` runs first; jobs of equal priority run in
    submission order.  The registry keeps every job (including finished
    ones) for status queries; the queue holds only runnable job ids.
    """

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.PriorityQueue[tuple]" = queue.PriorityQueue()
        self._sequence = itertools.count()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def add(self, job: Job, enqueue: bool = True) -> None:
        with self._lock:
            self._jobs[job.id] = job
        if enqueue:
            self._queue.put((-job.priority, next(self._sequence), job.id))

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def by_state(self) -> Dict[str, int]:
        counts = {state: 0 for state in STATES}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def depth(self) -> int:
        """Number of jobs waiting for an executor (approximate)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the highest-priority queued job; ``None`` on timeout."""
        try:
            _, _, job_id = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        return self.get(job_id)
