"""Fleet coordination: job leases renewed by a heartbeat.

Several ``repro.service`` replicas may share one ``--cache-dir``.  The
result/trace stores already make that safe for *data* (sharded segment
logs, cross-replica claims); :class:`LeaseManager` adds the *control*
plane on the same :class:`~repro.storage.ShardedStore`: at most one
replica runs a given job.  A lease is a store *claim*
(``owner``/``deadline``) on the job id in the lease log under
``jobs/leases/``, a key that never holds a value; the store's shard
flock makes acquire/steal decisions atomic across processes.  Live
replicas renew their leases from a heartbeat thread; renewal never
takes a lease another owner holds, so a replica that was presumed dead
and then woke up cannot steal its old job back.  A replica that dies
simply stops renewing, its leases expire, and any other replica may
**steal** the job — reset it to queued and run it again.  Completed
points are cache hits, so the re-run only pays for what the dead
replica never finished (the same semantics as a single-process
restart).

Leases degrade to no-ops without a cache dir (a memory-only service is
necessarily a fleet of one).  Fleet-wide counters are not stored here:
each replica serves its own registry, labelled with its replica id, and
a reader sums the replicas' ``/metrics`` (see ``docs/service.md``).
"""

from __future__ import annotations

import os
import socket
import threading
import uuid
from time import time as _wall_clock
from typing import Callable, List, Optional, Set, Tuple

from repro.storage import ShardedStore

#: Subdirectory of the job dir holding the lease log.
LEASE_SUBDIR = "leases"

#: Default lease lifetime; heartbeats renew at a third of this, so a
#: replica survives two missed beats before its jobs become stealable.
DEFAULT_LEASE_TTL = 15.0


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
        from repro.service.jobs import JOB_SUBDIR  # avoid an import cycle

        self.owner = owner
        self.ttl = ttl
        #: Reassignable; lease deadlines are written and judged by it.
        self.clock = clock
        self._store = (
            ShardedStore(os.path.join(cache_dir, JOB_SUBDIR, LEASE_SUBDIR),
                         num_shards=1, clock=lambda: self.clock())
            if cache_dir else None
        )
        self._held: Set[str] = set()
        #: Serializes this replica's own renewals and releases, so a
        #: heartbeat can never re-claim a lease released under it.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def acquire(self, job_id: str) -> bool:
        """Take (or renew) the lease on ``job_id``; ``False`` if another
        replica holds an unexpired lease."""
        if self._store is None:
            return True  # fleet of one
        if not self._store.claim(job_id, self.owner, self.ttl)[0]:
            return False
        with self._lock:
            self._held.add(job_id)
        return True

    def release(self, job_id: str) -> None:
        """Drop this replica's lease on ``job_id`` (no-op when not held)."""
        with self._lock:
            self._held.discard(job_id)
            if self._store is not None:
                self._store.release(job_id, self.owner)

    def renew_held(self) -> None:
        """Heartbeat: push every held lease's deadline forward."""
        with self._lock:
            for job_id in list(self._held):
                holder = self.holder(job_id)
                if (holder is None or holder[0] != self.owner
                        or not self._store.claim(job_id, self.owner, self.ttl)[0]):
                    # Lost (expired, maybe stolen) while we weren't
                    # looking; never take it back from under a thief.
                    self._held.discard(job_id)

    def holder(self, job_id: str) -> Optional[Tuple[str, float]]:
        """The (owner, deadline) of an unexpired lease, else ``None``."""
        if self._store is None:
            return None
        return self._store.claim_holder(job_id)

    def held(self) -> List[str]:
        with self._lock:
            return list(self._held)
