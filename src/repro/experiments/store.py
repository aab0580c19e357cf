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
from typing import Callable, Optional, Tuple

from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimulationStats
from repro.storage import TwoTierCache

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


class ResultStore(TwoTierCache):
    """Simulation results in a :class:`~repro.storage.TwoTierCache`.

    The memory tier returns the very same :class:`SimulationStats` object
    on repeated lookups (experiments rely on memoization identity); the
    disk tier round-trips through JSON, so a fresh process gets an
    equal-but-distinct object.
    """

    def __init__(self, cache_dir: Optional[str] = None, owner: Optional[str] = None) -> None:
        super().__init__(os.path.join(cache_dir, RESULT_SUBDIR) if cache_dir else None)
        self.cache_dir = cache_dir
        #: Identity used for store-level claims (fleet single-flight).
        self.owner = owner or f"pid-{os.getpid()}"

    def _encode(self, key: str, stats: SimulationStats, metadata: Optional[dict]) -> bytes:
        payload = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "metadata": metadata or {},
            "stats": stats.to_dict(),
        }
        return json.dumps(payload, default=str).encode("utf-8")

    def _decode(self, key: str, raw: bytes) -> Optional[SimulationStats]:
        payload = json.loads(raw.decode("utf-8"))
        stats = payload.get("stats") if payload.get("schema") == SCHEMA_VERSION else None
        if not isinstance(stats, dict):
            return None
        return SimulationStats.from_dict(stats)

    # get and put are defined here, not inherited: perfbench's tracer
    # wraps them by name, one wrapper per function, so a shared function
    # would bill result lookups to the trace store.
    def get(self, key: str) -> Optional[SimulationStats]:
        """Fetch a result, promoting disk entries into the memory tier."""
        return TwoTierCache.get(self, key)

    def put(self, key: str, stats: SimulationStats, metadata: Optional[dict] = None) -> None:
        """Record a result in both tiers (the disk append is atomic and
        implicitly releases any claim held on the key)."""
        TwoTierCache.put(self, key, stats, metadata)

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

    def describe(self) -> str:
        counts = self.counters()
        tier = self.cache_dir or "memory only"
        return (
            f"simulation cache [{tier}]: {counts['memory_hits']} memory hits, "
            f"{counts['disk_hits']} disk hits, {counts['misses']} misses, "
            f"{counts['stores']} new results"
        )
