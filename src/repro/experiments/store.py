"""Two-tier storage of simulation results.

:class:`ResultStore` keeps every :class:`~repro.pipeline.stats.SimulationStats`
produced by the experiment harness in an in-memory dictionary and,
optionally, mirrors it to a sharded append-only segment log
(:class:`~repro.storage.sharded.ShardedStore` under
``<cache_dir>/results/``) so that repeated invocations of the runner
only pay for simulation points they have never seen before.

Keys are content hashes over everything that determines a simulation's
outcome: the benchmark name, the register-file architecture (its factory
parameters, not just its display label), the **full**
:class:`~repro.pipeline.config.ProcessorConfig` and the warmup budget.
The historical in-process cache keyed on a 5-field tuple silently
collided when two configurations differed in any other field
(``issue_width``, ``lsq_size``, cache geometry, ...); hashing the whole
config closes that hole.

The disk tier doubles as the fleet's coordination point: *claims*
(:meth:`ResultStore.claim_point`) give N service replicas sharing one
cache tree cross-replica single-flight — only one replica simulates a
given point, the others poll for its stored result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from typing import Callable, Dict, Optional, Tuple

from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimulationStats
from repro.storage import ShardedStore

#: Bump when the on-disk payload layout changes; mismatching entries are
#: treated as cache misses rather than errors.
SCHEMA_VERSION = 1

#: Subdirectory of the cache dir holding the sharded result segments.
RESULT_SUBDIR = "results"

#: Default lifetime of a point claim; generous next to point runtimes so
#: a live replica never loses a claim mid-simulation, short enough that
#: a crashed replica's claims expire quickly.
DEFAULT_CLAIM_TTL = 120.0


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def factory_fingerprint(factory: Callable) -> dict:
    """Stable description of a register-file factory.

    The factories built by :mod:`repro.experiments.common` are frozen
    dataclasses, so their class name plus parameters pin down the exact
    architecture.  Opaque callables (lambdas, local closures) cannot be
    introspected; they are identified by their qualified name and rely on
    the experiment's architecture key for disambiguation.
    """
    if dataclasses.is_dataclass(factory) and not isinstance(factory, type):
        return {
            "type": type(factory).__name__,
            "parameters": dataclasses.asdict(factory),
        }
    return {"type": getattr(factory, "__qualname__", type(factory).__name__)}


def simulation_key(
    benchmark: str,
    architecture: str,
    config: ProcessorConfig,
    warmup_instructions: int,
    factory: Optional[Callable] = None,
    sampling: Optional[dict] = None,
) -> str:
    """Content hash identifying one simulation point.

    ``sampling`` (a :meth:`SamplingSpec.to_payload` dictionary) enters
    the payload only when set, so every pre-sampling cache entry keeps
    its key and sampled results can never collide with exact ones.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "benchmark": benchmark,
        "architecture": architecture,
        "factory": factory_fingerprint(factory) if factory is not None else None,
        "config": dataclasses.asdict(config),
        "warmup_instructions": warmup_instructions,
    }
    if sampling is not None:
        payload["sampling"] = sampling
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


class ResultStore:
    """In-memory dictionary of results, optionally backed by a directory.

    The memory tier returns the very same :class:`SimulationStats` object
    on repeated lookups (experiments rely on memoization identity); the
    disk tier round-trips through JSON, so a fresh process gets an
    equal-but-distinct object.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        owner: Optional[str] = None,
        ttl_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.cache_dir = cache_dir
        #: Identity used for store-level claims (fleet single-flight).
        self.owner = owner or f"pid-{os.getpid()}"
        self._memory: Dict[str, SimulationStats] = {}
        # Concurrent SweepEngine.execute calls (the sweep service's job
        # threads) share one store; the lock keeps the counters exact so
        # /metrics hit rates are trustworthy.  Disk appends are already
        # serialized by the shard file locks.
        self._counter_lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self._disk: Optional[ShardedStore] = None
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            self._disk = ShardedStore(
                os.path.join(cache_dir, RESULT_SUBDIR),
                ttl_seconds=ttl_seconds,
                max_bytes=max_bytes,
            )

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return self.peek(key) is not None

    def _load_from_disk(self, key: str) -> Optional[SimulationStats]:
        if self._disk is None:
            return None
        raw = self._disk.get(key)
        if raw is None:
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != SCHEMA_VERSION or "stats" not in payload:
            return None
        try:
            return SimulationStats.from_dict(payload["stats"])
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------

    def peek(self, key: str) -> Optional[SimulationStats]:
        """Lookup without touching the hit/miss counters."""
        stats = self._memory.get(key)
        if stats is not None:
            return stats
        stats = self._load_from_disk(key)
        if stats is not None:
            self._memory[key] = stats
        return stats

    def get(self, key: str) -> Optional[SimulationStats]:
        """Fetch a result, promoting disk entries into the memory tier."""
        stats = self._memory.get(key)
        if stats is not None:
            with self._counter_lock:
                self.memory_hits += 1
            return stats
        stats = self._load_from_disk(key)
        if stats is not None:
            self._memory[key] = stats
            with self._counter_lock:
                self.disk_hits += 1
            return stats
        with self._counter_lock:
            self.misses += 1
        return None

    def put(self, key: str, stats: SimulationStats, metadata: Optional[dict] = None) -> None:
        """Record a result in both tiers (the disk append is atomic and
        implicitly releases any claim held on the key)."""
        self._memory[key] = stats
        with self._counter_lock:
            self.stores += 1
        if self._disk is None:
            return
        payload = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "metadata": metadata or {},
            "stats": stats.to_dict(),
        }
        self._disk.put(key, json.dumps(payload, default=str).encode("utf-8"))

    # ------------------------------------------------------------------
    # fleet claims (cross-replica single-flight)
    # ------------------------------------------------------------------

    def supports_claims(self) -> bool:
        """Store-level claims need a disk tier shared between replicas."""
        return self._disk is not None

    def claim_point(
        self, key: str, ttl: float = DEFAULT_CLAIM_TTL
    ) -> Tuple[bool, Optional[str]]:
        """Claim ``key`` for this store's owner; ``(ok, holder)``."""
        if self._disk is None:
            return True, self.owner
        return self._disk.claim(key, self.owner, ttl)

    def release_point(self, key: str) -> None:
        """Drop this owner's claim on ``key`` (storing a result also does)."""
        if self._disk is not None:
            self._disk.release(key, self.owner)

    def point_claim(self, key: str) -> Optional[Tuple[str, float]]:
        """The (owner, deadline) currently claiming ``key``, if any."""
        if self._disk is None:
            return None
        return self._disk.claim_holder(key)

    # ------------------------------------------------------------------

    def set_observer(self, observer) -> None:
        """Install a ``(op, seconds)`` duration sink on the disk tier
        (see :attr:`ShardedStore.observer`); no-op when memory-only."""
        if self._disk is not None:
            self._disk.observer = observer

    def compact(self) -> None:
        """Force-compact the disk tier (drops dead/expired records)."""
        if self._disk is not None:
            self._disk.compact()

    def storage_stats(self) -> Dict[str, int]:
        """Segment-log health counters for /metrics (empty when memory-only)."""
        if self._disk is None:
            return {}
        return self._disk.stats()

    def counters(self) -> Dict[str, int]:
        """Hit/miss accounting for progress reports and tests."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": len(self._memory),
        }

    def describe(self) -> str:
        counts = self.counters()
        tier = self.cache_dir or "memory only"
        return (
            f"simulation cache [{tier}]: {counts['memory_hits']} memory hits, "
            f"{counts['disk_hits']} disk hits, {counts['misses']} misses, "
            f"{counts['stores']} new results"
        )
