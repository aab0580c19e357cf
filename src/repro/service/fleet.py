"""Fleet coordination: job leases, heartbeats and replica metrics.

Several ``repro.service`` replicas may share one ``--cache-dir``.  The
result/trace stores already make that safe for *data* (sharded segment
logs, cross-replica claims); this module adds the *control* plane on
the same :class:`~repro.storage.ShardedStore`:

* :class:`LeaseManager` — at most one replica runs a given job.  A
  lease is a store *claim* (``owner``/``deadline``) on the job id in the
  lease log under ``jobs/leases/``, a key that never holds a value; the
  store's shard flock makes acquire/steal decisions atomic across
  processes.  Live replicas renew their leases from a heartbeat thread;
  renewal never takes a lease another owner holds, so a replica that
  was presumed dead and then woke up cannot steal its old job back.  A
  replica that dies simply stops renewing, its leases expire, and any
  other replica may **steal** the job — reset it to queued and run it
  again.
  Completed points are cache hits, so the re-run only pays for what the
  dead replica never finished (the same semantics as a single-process
  restart).
* :class:`ReplicaRegistry` — each replica periodically puts a snapshot
  of its point/engine counters, keyed by replica id, into the store
  under ``replicas/``.  :meth:`ReplicaRegistry.fleet_metrics` aggregates
  every snapshot into the fleet-wide section of ``/metrics`` (total
  points per minute, per-replica activity), which is how a two-replica
  CI run can assert that no simulation executed twice anywhere in the
  fleet.

Both classes degrade to no-ops without a cache dir (a memory-only
service is necessarily a fleet of one).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import uuid
from time import time as _wall_clock
from typing import Callable, List, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.storage import ShardedStore

#: Subdirectory of the job dir holding the lease log.
LEASE_SUBDIR = "leases"

#: Subdirectory of the cache dir holding replica snapshots.
REPLICA_SUBDIR = "replicas"

#: Default lease lifetime; heartbeats renew at a third of this, so a
#: replica survives two missed beats before its jobs become stealable.
DEFAULT_LEASE_TTL = 15.0

#: Point counters served under ``points`` and ``fleet.points`` in
#: /metrics.  The names and their order are part of the JSON contract
#: (regression tested against the historical payload shape).
POINT_FIELDS = (
    "requested", "unique", "completed", "executed", "from_cache",
    "shared_inflight", "remote_inflight", "remote_reclaimed",
)


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


def _coerce_count(value) -> Tuple[int, bool]:
    """``(rounded integer, was_numeric)`` for one snapshot counter field.

    Counters are integers at the source, but JSON round-trips and rate
    arithmetic can hand back floats; those are *rounded*, not truncated,
    so fleet totals cannot drift low.  Booleans and non-numbers are
    malformed (counted by the caller), never silently zeroed into the
    totals.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0, False
    return int(round(value)), True


class ReplicaRegistry:
    """Published per-replica counter snapshots and their aggregation."""

    def __init__(
        self,
        cache_dir: Optional[str],
        replica_id: str,
        clock: Callable[[], float] = _wall_clock,
    ) -> None:
        self.replica_id = replica_id
        self.clock = clock
        self._store = (
            ShardedStore(os.path.join(cache_dir, REPLICA_SUBDIR), num_shards=1)
            if cache_dir else None
        )

    # ------------------------------------------------------------------

    def publish(self, snapshot: dict) -> None:
        """Put this replica's counter snapshot (latest put wins)."""
        if self._store is None:
            return
        payload = dict(snapshot)
        payload["replica_id"] = self.replica_id
        payload["updated_at"] = self.clock()
        try:
            self._store.put(self.replica_id, json.dumps(payload).encode("utf-8"))
        except OSError:
            pass  # metrics publishing must never take a replica down

    def snapshots(self) -> List[dict]:
        """Every replica's latest snapshot (undecodable ones skipped)."""
        if self._store is None:
            return []
        result = []
        for replica_id in sorted(self._store.keys()):
            try:
                payload = json.loads(self._store.get(replica_id))
            except (TypeError, ValueError):
                continue
            if isinstance(payload, dict) and isinstance(payload.get("replica_id"), str):
                result.append(payload)
        return result

    def fleet_metrics(self, fresh_within: float) -> dict:
        """Aggregate every published snapshot into fleet-wide totals.

        Stale snapshots (older than ``fresh_within``) still count toward
        the monotonic totals — a drained replica's completed work does
        not vanish from the fleet's history — but not toward
        ``active_replicas`` or the aggregate points/min rate.

        Float counter values are rounded (never truncated) into the
        totals; fields that are present but not numeric are skipped and
        counted in ``snapshot_errors`` so a corrupt snapshot is visible
        instead of silently dragging the fleet totals low.
        """
        now = self.clock()
        totals = dict.fromkeys(POINT_FIELDS, 0)
        replicas = []
        active = 0
        per_minute = 0.0
        snapshot_errors = 0
        merged = MetricsRegistry()
        for snapshot in self.snapshots():
            histograms = snapshot.get("histograms")
            if histograms is not None and not isinstance(histograms, dict):
                snapshot_errors += 1
            elif isinstance(histograms, dict):
                snapshot_errors += merged.merge_histogram_payloads(
                    sorted(histograms.items()), into=merged
                )
            updated_at = snapshot.get("updated_at")
            age = (
                round(now - updated_at, 1)
                if isinstance(updated_at, (int, float)) else None
            )
            is_active = age is not None and age <= fresh_within
            points = snapshot.get("points")
            if points is None:
                points = {}
            elif not isinstance(points, dict):
                snapshot_errors += 1
                points = {}
            replica_points = {}
            for field in totals:
                value, numeric = _coerce_count(points.get(field, 0))
                replica_points[field] = value
                if not numeric:
                    snapshot_errors += 1
                    continue
                if field in points:
                    totals[field] += value
            if is_active:
                active += 1
                rate = points.get("per_minute", 0)
                if isinstance(rate, (int, float)) and not isinstance(rate, bool):
                    per_minute += rate
                else:
                    snapshot_errors += 1
            replicas.append({
                "id": snapshot["replica_id"],
                "active": is_active,
                "age_seconds": age,
                "points": replica_points,
            })
        result = {
            "replicas": replicas,
            "active_replicas": active,
            "known_replicas": len(replicas),
            "points": totals,
            "per_minute": round(per_minute, 2),
            "snapshot_errors": snapshot_errors,
        }
        latency = {h.name: h for h in merged.histograms()}.get(
            "point.simulate_seconds"
        )
        if latency is not None and latency.count:
            # Histogram merge is exact (same fixed bucket bounds on every
            # replica), so these fleet-wide percentiles equal a histogram
            # built from the concatenated samples.
            result["point_latency_s"] = {
                "count": latency.count,
                "p50": round(latency.quantile(0.5), 6),
                "p95": round(latency.quantile(0.95), 6),
                "p99": round(latency.quantile(0.99), 6),
            }
        return result
