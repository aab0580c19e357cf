"""On-disk store of decoded traces.

Traces live in a ``traces/`` subdirectory of the experiment cache
directory, so one ``--cache-dir`` serves both the
:class:`~repro.experiments.store.ResultStore` (sharded segments under
``results/``) and the trace store without any collision.  The disk tier
is a size-bounded :class:`~repro.storage.sharded.ShardedStore`: each
trace payload is gzip-compressed JSON appended to a segment log, and
when the store outgrows ``max_bytes`` the oldest traces are evicted at
compaction — traces are pure derived data, so evicting one only costs a
re-decode.  Unreadable, corrupt or schema-mismatching payloads are
treated as cache misses.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import threading
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.storage import ShardedStore
from repro.trace.schema import DecodedTrace

#: Subdirectory of the cache dir reserved for traces.
TRACE_SUBDIR = "traces"

#: Default size bound for the on-disk trace tier.  Decoded traces are
#: bulky relative to results; bounding the store keeps a long-lived
#: cache tree from growing without limit (oldest traces are evicted
#: first and simply get re-decoded on next use).
DEFAULT_TRACE_MAX_BYTES = 1 << 30

#: gzip level of stored payloads.  Level 9 costs ~5x the time of level 6
#: on a decoded trace for ~5% fewer bytes; any level decompresses alike.
COMPRESS_LEVEL = 6


def _compress(payload) -> bytes:
    """gzip-compressed JSON of ``payload`` (mtime 0: deterministic)."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0,
                       compresslevel=COMPRESS_LEVEL) as handle:
        handle.write(json.dumps(payload).encode("utf-8"))
    return buffer.getvalue()


class TraceStore:
    """Two-tier (memory + optional disk) store of decoded traces."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_bytes: Optional[int] = DEFAULT_TRACE_MAX_BYTES,
    ) -> None:
        self.cache_dir = cache_dir
        self.trace_dir = os.path.join(cache_dir, TRACE_SUBDIR) if cache_dir else None
        self._memory: Dict[str, DecodedTrace] = {}
        # Generic JSON payloads (e.g. trace checkpoints) stored alongside
        # traces; see ``put_payload`` / ``get_payload``.
        self._payload_memory: Dict[str, dict] = {}
        # Concurrent SweepEngine.execute calls (service job threads) share
        # one trace store; exact counters keep /metrics hit rates honest.
        self._counter_lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self._disk: Optional[ShardedStore] = None
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)
            self._disk = ShardedStore(self.trace_dir, max_bytes=max_bytes)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def _load_from_disk(self, key: str) -> Optional[DecodedTrace]:
        if self._disk is None:
            return None
        raw = self._disk.get(key)
        if raw is None:
            return None
        try:
            payload = json.loads(gzip.decompress(raw).decode("utf-8"))
        except (OSError, ValueError, EOFError, UnicodeDecodeError):
            return None
        try:
            trace = DecodedTrace.from_payload(payload)
        except SimulationError:
            return None
        if trace.key != key:
            return None
        return trace

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[DecodedTrace]:
        """Fetch a trace, promoting disk entries into the memory tier."""
        trace = self._memory.get(key)
        if trace is not None:
            with self._counter_lock:
                self.memory_hits += 1
            return trace
        trace = self._load_from_disk(key)
        if trace is not None:
            self._memory[key] = trace
            with self._counter_lock:
                self.disk_hits += 1
            return trace
        with self._counter_lock:
            self.misses += 1
        return None

    def put(self, trace: DecodedTrace) -> None:
        """Record a trace in both tiers (the disk append is atomic)."""
        self._memory[trace.key] = trace
        with self._counter_lock:
            self.stores += 1
        if self._disk is None:
            return
        self._disk.put(trace.key, _compress(trace.to_payload()))

    # ------------------------------------------------------------------
    # generic payloads (trace checkpoints, other trace-derived artifacts)
    # ------------------------------------------------------------------

    def put_payload(self, key: str, payload: dict) -> None:
        """Record an arbitrary JSON payload under a content-hash key.

        Shares the trace tiers (memory dict, sharded disk segments) and
        the gzip-JSON encoding; callers own the key discipline — keys
        must be content hashes that cannot collide with trace keys
        (checkpoint keys hash a distinct ``kind`` tag).
        """
        self._payload_memory[key] = payload
        with self._counter_lock:
            self.stores += 1
        if self._disk is None:
            return
        self._disk.put(key, _compress(payload))

    def get_payload(self, key: str) -> Optional[dict]:
        """Fetch a payload stored with :meth:`put_payload`.

        Absent, unreadable or corrupt entries are cache misses
        (``None``) — identical quarantine semantics to traces.
        """
        payload = self._payload_memory.get(key)
        if payload is not None:
            with self._counter_lock:
                self.memory_hits += 1
            return payload
        if self._disk is not None:
            raw = self._disk.get(key)
            if raw is not None:
                try:
                    payload = json.loads(gzip.decompress(raw).decode("utf-8"))
                except (OSError, ValueError, EOFError, UnicodeDecodeError):
                    payload = None
                if isinstance(payload, dict):
                    self._payload_memory[key] = payload
                    with self._counter_lock:
                        self.disk_hits += 1
                    return payload
        with self._counter_lock:
            self.misses += 1
        return None

    # ------------------------------------------------------------------

    def set_observer(self, observer) -> None:
        """Install a ``(op, seconds)`` duration sink on the disk tier
        (see :attr:`ShardedStore.observer`); no-op when memory-only."""
        if self._disk is not None:
            self._disk.observer = observer

    def compact(self) -> None:
        """Force-compact the disk tier (applies the size bound eagerly)."""
        if self._disk is not None:
            self._disk.compact()

    def storage_stats(self) -> Dict[str, int]:
        """Segment-log health counters for /metrics (empty when memory-only)."""
        if self._disk is None:
            return {}
        return self._disk.stats()

    def counters(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": len(self._memory),
        }
