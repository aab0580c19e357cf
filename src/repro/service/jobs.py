"""Job model, priority queue and the schema-versioned job store.

A *job* is one submitted sweep: either a named figure plan plus
settings, or an explicit list of simulation points.  Jobs move through
``queued -> running -> completed | failed``; every transition is
saved to the ``jobs`` table of the cache directory's database
(:mod:`repro.storage.database`) so a
restarted service resumes exactly where the previous process stopped —
``queued`` jobs re-enter the queue, and jobs that were ``running`` when
the process died are re-queued rather than lost.

A record holds only what nothing else can rebuild: the spec, the
lifecycle state, the point accounting, the engine counters, the fault
history and the trace context.  The plan is re-derived from the spec
and a completed job's result is rendered from the result store, so
neither is ever persisted here.

A record that does not decode (schema or id mismatch) is skipped and
counted as **quarantined**, mirroring the
:class:`~repro.trace.store.TraceStore` convention that a bad cache
entry is a miss, never a crash.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import json
import os
import queue
import threading
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

from repro.chaos import seams as _seams
from repro.storage import open_database
from repro.version import __version__

#: Bump when the job record layout changes; mismatching records are
#: quarantined as misses rather than errors.
SCHEMA_VERSION = 1

#: Subdirectory of the cache dir holding the quarantine directory.
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

#: Encodes a job record, as ``json.dumps(record, default=str)`` does
#: without building an encoder per call.
_RECORD_ENCODER = json.JSONEncoder(default=str)

#: Fault-history entries kept per job (oldest dropped beyond this).
FAULT_HISTORY_LIMIT = 20

#: Execution attempts (first run + re-queues/steals) before a job is
#: declared poisonous and quarantined instead of retried again.
POISON_ATTEMPTS = 3


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
    #: The validated plan (a :class:`~repro.service.spec.JobPlan`): kept
    #: from admission, or validated once from a loaded record.  Held in
    #: memory only, never persisted.
    plan: Optional[Any] = field(default=None, repr=False, compare=False)
    #: ``submitted_at`` in epoch seconds (``None`` if it does not parse;
    #: a naive stamp is UTC), and the epoch second past which the job
    #: fails (``None`` without a ``deadline_s``).  Both are fixed once, at
    #: construction: the deadline is anchored at submission, so it counts
    #: queueing, retries and steals on every replica alike.  Not persisted.
    submitted_s: Optional[float] = field(default=None, init=False,
                                         repr=False, compare=False)
    deadline: Optional[float] = field(default=None, init=False, repr=False,
                                      compare=False)
    #: Guards terminal transitions: a deadline watchdog and the executor
    #: may race to finish one job — first terminal mark wins, later ones
    #: are no-ops.  Not part of the persisted record.
    _state_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        try:
            submitted = datetime.fromisoformat(self.submitted_at)
        except (TypeError, ValueError):
            return
        if submitted.tzinfo is None:
            submitted = submitted.replace(tzinfo=timezone.utc)
        self.submitted_s = submitted.timestamp()
        deadline_s = self.spec.get("deadline_s") if self.spec else None
        if isinstance(deadline_s, (int, float)) and not isinstance(deadline_s, bool):
            self.deadline = self.submitted_s + deadline_s

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ------------------------------------------------------------------

    def mark_running(self) -> None:
        with self._state_lock:
            self.state = RUNNING
            self.started_at = _now()
            self.attempts += 1

    def mark_completed(self, counters: dict) -> bool:
        """Complete the job; ``False`` (no-op) if already terminal."""
        with self._state_lock:
            if self.state in TERMINAL_STATES:
                return False
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
        self.attempts = other.attempts
        self.fault_history = list(other.fault_history)
        self.submitted_s = other.submitted_s
        self.deadline = other.deadline
        if other.trace is not None:
            self.trace = dict(other.trace)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
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
    """Job records in the ``jobs`` table of ``<cache-dir>/cache.sqlite3``.

    Every save replaces the job's row with its full JSON record under a
    new ``seq`` (the table's ``AUTOINCREMENT`` key never reuses one), so
    the rows past the highest ``seq`` a reader has seen are exactly the
    jobs saved since.  Without a ``cache_dir`` the store is memory-less:
    saves are no-ops and nothing loads, so a cache-less service simply
    has no persistence (jobs die with the process, by design).
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self.job_dir = os.path.join(cache_dir, JOB_SUBDIR) if cache_dir else None
        self._database = open_database(cache_dir) if cache_dir else None
        #: Records skipped because they do not decode (schema or id
        #: mismatch).  Poisoned jobs are counted by ``jobs.poisoned``.
        self.quarantined = 0
        #: Persist attempts dropped because the disk was full; the job
        #: lives on in memory, so a full disk degrades durability (a
        #: restart forgets recent transitions) without failing jobs.
        self.save_errors = 0
        #: The highest ``seq`` :meth:`load_changed` has read.
        self._last_seq = 0

    # ------------------------------------------------------------------

    def save(self, job: Job) -> None:
        """Replace the job's stored record (no-op without a dir).

        ENOSPC is absorbed: the write is dropped and counted in
        ``save_errors`` rather than failing the job — the in-memory
        record stays authoritative for this process's lifetime.  Once
        the database has degraded to read-only every save is such a drop.
        """
        if self._database is None:
            return
        try:
            if _seams.active is not None:
                _seams.active.fire("jobs.save", job_id=job.id,
                                   state=job.state)
            dropped = self._database.write(
                "INSERT OR REPLACE INTO jobs (id, record) VALUES (?, ?)",
                (job.id, _RECORD_ENCODER.encode(job.to_dict())),
            ) is None
        except OSError as error:
            if error.errno != errno.ENOSPC:
                raise
            dropped = True
        if dropped:
            self.save_errors += 1

    @staticmethod
    def _decode(job_id: str, record: str) -> Optional[Job]:
        """The job stored as ``record``; ``None`` if it does not decode to
        a job of ``job_id``."""
        try:
            job = Job.from_dict(json.loads(record))
        except (ValueError, KeyError, TypeError):
            return None
        return job if job.id == job_id else None

    def load(self, job_id: str) -> Optional[Job]:
        """The latest record of one job, including saves made by other
        processes; ``None`` when missing or unreadable."""
        if self._database is None:
            return None
        rows = self._database.query("SELECT record FROM jobs WHERE id = ?", (job_id,))
        return self._decode(job_id, rows[0][0]) if rows else None

    def load_changed(self) -> List[Job]:
        """Jobs saved since the previous call, oldest submission first —
        every job on the first call.

        This is the one read path of startup resume and the fleet
        poller; its cost follows the saves since the last call, not the
        number of stored jobs.  A record that does not decode (schema
        or id mismatch) is skipped and counted in ``quarantined`` — a
        bad record is a miss, never a crash.
        """
        if self._database is None:
            return []
        rows = self._database.query(
            "SELECT seq, id, record FROM jobs WHERE seq > ? ORDER BY seq",
            (self._last_seq,),
        )
        jobs: List[Job] = []
        for seq, job_id, record in rows:
            self._last_seq = seq
            job = self._decode(job_id, record)
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
        record is saved to the table too, so no replica's resume/steal
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
                handle.write(_RECORD_ENCODER.encode(job.to_dict()))
        except OSError:
            # Quarantine-on-a-full-disk still works in memory: the job
            # is terminally failed either way.
            pass
        self.save(job)


# ----------------------------------------------------------------------
# in-memory registry + priority queue
# ----------------------------------------------------------------------


class JobQueue:
    """Thread-safe job registry with a priority dispatch queue.

    Higher ``priority`` runs first; jobs of equal priority run in
    submission order.  The registry keeps every job (including finished
    ones) for status queries; the queue holds only runnable job ids.
    Every job that has a deadline also goes on a heap, soonest first,
    so the jobs past their deadline are found without a scan.
    """

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.PriorityQueue[tuple]" = queue.PriorityQueue()
        self._sequence = itertools.count()
        self._lock = threading.Lock()
        #: ``(deadline, job id)`` per :meth:`add` of a job with a
        #: deadline; an entry leaves when its deadline comes due.
        self._deadlines: List[tuple] = []

    # ------------------------------------------------------------------

    def add(self, job: Job, enqueue: bool = True) -> None:
        """Register ``job`` (submitted, resumed, adopted or stolen) and,
        with ``enqueue``, queue it to run.  Adding a job again may leave
        a second deadline entry; :meth:`expired` drops it."""
        with self._lock:
            self._jobs[job.id] = job
            if job.deadline is not None:
                heapq.heappush(self._deadlines, (job.deadline, job.id))
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

    def expired(self, now: float) -> List[Job]:
        """Pop the deadline entries due at ``now`` (epoch seconds): the
        registered jobs among them that have not ended yet."""
        due: Dict[str, Job] = {}
        with self._lock:
            while self._deadlines and self._deadlines[0][0] <= now:
                job = self._jobs[heapq.heappop(self._deadlines)[1]]
                if not job.terminal:
                    due[job.id] = job
        return list(due.values())

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
