"""Fleet coordination: job leases renewed by a heartbeat.

Several ``repro.service`` replicas may share one ``--cache-dir``.  The
result/trace stores already make that safe for *data* (one database
file; two replicas that simulate the same point store the same bytes);
:class:`LeaseManager` adds the *control* plane in the same database:
at most one replica runs a given job.  A lease is a row of the
``claims`` table (``owner``/``deadline``) keyed by the job id.  Acquire,
renew and release are each one SQL statement, so each is one write
transaction under SQLite's database lock and atomic across processes;
deadlines are judged against :attr:`LeaseManager.clock`.  Live
replicas renew their leases from a heartbeat thread; renewal never
takes a lease another owner holds, so a replica that was presumed dead
and then woke up cannot steal its old job back.  A replica that dies
simply stops renewing, its leases expire, and any other replica may
**steal** the job — reset it to queued and run it again.  Completed
points are cache hits, so the re-run only pays for what the dead
replica never finished (the same semantics as a single-process
restart).

Leases degrade to no-ops without a cache dir (a memory-only service is
necessarily a fleet of one), and to grants that write nothing once a
full disk has turned the database read-only.  Fleet-wide counters are
not stored here: each replica serves its own registry, labelled with
its replica id, and a reader sums the replicas' ``/metrics`` (see
``docs/service.md``).
"""

from __future__ import annotations

import os
import socket
import threading
import uuid
from time import time as _wall_clock
from typing import Callable, List, Optional, Set, Tuple

from repro.storage import open_database

#: Default lease lifetime; heartbeats renew at a third of this, so a
#: replica survives two missed beats before its jobs become stealable.
DEFAULT_LEASE_TTL = 15.0

#: Takes the lease on a key unless another owner's lease is live:
#: ``(key, owner, deadline, now)``; changes one row when granted.
_ACQUIRE = """
INSERT INTO claims (key, owner, deadline) VALUES (?, ?, ?)
ON CONFLICT (key) DO UPDATE SET owner = excluded.owner, deadline = excluded.deadline
WHERE claims.owner = excluded.owner OR claims.deadline <= ?
"""

#: Pushes one's own live lease forward: ``(deadline, key, owner, now)``.
_RENEW = "UPDATE claims SET deadline = ? WHERE key = ? AND owner = ? AND deadline > ?"


def default_replica_id() -> str:
    """A replica identity unique across hosts, processes and restarts."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:4]}"


class LeaseManager:
    """Leased, heartbeat-renewed ownership of jobs across replicas."""

    def __init__(
        self,
        cache_dir: Optional[str],
        owner: str,
        ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = _wall_clock,
    ) -> None:
        self.owner = owner
        self.ttl = ttl
        #: Reassignable; lease deadlines are written and judged by it.
        self.clock = clock
        self._database = open_database(cache_dir) if cache_dir else None
        self._held: Set[str] = set()
        #: Serializes this replica's own renewals and releases, so a
        #: heartbeat can never re-claim a lease released under it.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def acquire(self, job_id: str) -> bool:
        """Take (or renew) the lease on ``job_id``; ``False`` if another
        replica holds an unexpired lease."""
        if self._database is None:
            return True  # fleet of one
        now = self.clock()
        if self._database.write(_ACQUIRE, (job_id, self.owner, now + self.ttl, now)) == 0:
            return False
        with self._lock:
            self._held.add(job_id)
        return True

    def release(self, job_id: str) -> None:
        """Drop this replica's lease on ``job_id`` (no-op when not held)."""
        with self._lock:
            self._held.discard(job_id)
            if self._database is not None:
                self._database.write("DELETE FROM claims WHERE key = ? AND owner = ?",
                                     (job_id, self.owner))

    def renew_held(self) -> None:
        """Heartbeat: push every held lease's deadline forward."""
        with self._lock:
            for job_id in list(self._held):
                now = self.clock()
                if self._database.write(
                    _RENEW, (now + self.ttl, job_id, self.owner, now)
                ) == 0:
                    # Lost (expired, maybe stolen) while we weren't
                    # looking; never take it back from under a thief.
                    self._held.discard(job_id)

    def holder(self, job_id: str) -> Optional[Tuple[str, float]]:
        """The (owner, deadline) of an unexpired lease, else ``None``."""
        if self._database is None:
            return None
        rows = self._database.query(
            "SELECT owner, deadline FROM claims WHERE key = ? AND deadline > ?",
            (job_id, self.clock()),
        )
        return rows[0] if rows else None

    def held(self) -> List[str]:
        with self._lock:
            return list(self._held)
