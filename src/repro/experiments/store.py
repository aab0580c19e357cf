"""Two-tier storage of simulation results.

:class:`ResultStore` keeps every :class:`~repro.pipeline.stats.SimulationStats`
produced by the experiment harness in an in-memory dictionary and,
optionally, mirrors it to a sharded append-only segment log
(:class:`~repro.storage.sharded.ShardedStore` under
``<cache_dir>/results/``) so that repeated invocations of the runner
only pay for simulation points they have never seen before.

Keys are content hashes over everything that determines a simulation's
outcome: the benchmark name, the register-file architecture's factory
parameters, the **full** :class:`~repro.pipeline.config.ProcessorConfig`
and the warmup budget.  A point's display label is not part of its key,
so one architecture under two labels is simulated and stored once.
The historical in-process cache keyed on a 5-field tuple silently
collided when two configurations differed in any other field
(``issue_width``, ``lsq_size``, cache geometry, ...); hashing the whole
config closes that hole.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimulationStats
from repro.storage import TwoTierCache

#: Bump when the on-disk payload layout changes; mismatching entries are
#: treated as cache misses rather than errors.
SCHEMA_VERSION = 1

#: Subdirectory of the cache dir holding the sharded result segments.
RESULT_SUBDIR = "results"


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def factory_fingerprint(factory: Callable) -> dict:
    """Stable description of a register-file factory.

    The factories built by :mod:`repro.experiments.common` are frozen
    dataclasses, so their class name plus parameters pin down the exact
    architecture.  Opaque callables (lambdas, local closures) cannot be
    introspected, and two of them with one qualified name may build
    different files, so they have no fingerprint.

    Raises
    ------
    ConfigurationError
        If ``factory`` is not a dataclass instance.
    """
    if dataclasses.is_dataclass(factory) and not isinstance(factory, type):
        return {
            "type": type(factory).__name__,
            "parameters": dataclasses.asdict(factory),
        }
    raise ConfigurationError(
        f"register-file factory {factory!r} is not a dataclass instance, "
        f"so its parameters cannot key a stored result"
    )


def simulation_key(
    benchmark: str,
    factory: Callable,
    config: ProcessorConfig,
    warmup_instructions: int,
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
        "factory": factory_fingerprint(factory),
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

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        super().__init__(os.path.join(cache_dir, RESULT_SUBDIR) if cache_dir else None)
        self.cache_dir = cache_dir

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
        """Record a result in both tiers (the disk append is atomic)."""
        TwoTierCache.put(self, key, stats, metadata)

    def describe(self) -> str:
        counts = self.counters()
        tier = self.cache_dir or "memory only"
        return (
            f"simulation cache [{tier}]: {counts['memory_hits']} memory hits, "
            f"{counts['disk_hits']} disk hits, {counts['misses']} misses, "
            f"{counts['stores']} new results"
        )
