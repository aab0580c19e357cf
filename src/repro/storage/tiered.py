"""Two-tier cache: a memory dictionary in front of an optional segment log.

The result store and the trace store are the same policy as the paper's
register file cache: a small fast upper level (a dictionary of decoded
objects) in front of a large lower level (a
:class:`~repro.storage.sharded.ShardedStore` of encoded bytes).  A lower
level hit is decoded once and promoted into the upper level.  A subclass
supplies only its codec, :meth:`TwoTierCache._encode` and
:meth:`TwoTierCache._decode`; a record that fails to decode, for any
reason, is a counted miss and never an error.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.storage.sharded import ShardedStore


class TwoTierCache:
    """Memory tier plus an optional disk tier rooted at ``root``."""

    def __init__(self, root: Optional[str] = None,
                 max_bytes: Optional[int] = None) -> None:
        self._memory: Dict[str, Any] = {}
        # Concurrent SweepEngine.execute calls (the service's job threads)
        # share one store; the lock keeps the counters exact so /metrics
        # hit rates are trustworthy.  Disk appends are already serialized
        # by the shard file locks.
        self._counter_lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self._disk: Optional[ShardedStore] = (
            ShardedStore(root, max_bytes=max_bytes) if root else None
        )

    # ------------------------------------------------------------------
    # codec (subclasses)
    # ------------------------------------------------------------------

    def _encode(self, key: str, value: Any, metadata: Optional[dict]) -> bytes:
        """The disk-tier bytes of ``value`` (``metadata`` as given to put)."""
        raise NotImplementedError

    def _decode(self, key: str, raw: bytes) -> Any:
        """The object stored as ``raw``, or ``None`` to reject it; raising
        also rejects it."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def _load(self, key: str) -> Any:
        """Decode ``key`` from the disk tier and promote it into memory."""
        if self._disk is None:
            return None
        raw = self._disk.get(key)
        if raw is None:
            return None
        try:
            value = self._decode(key, raw)
        except Exception:  # noqa: BLE001 - a corrupt record is a miss
            return None
        if value is not None:
            self._memory[key] = value
        return value

    def peek(self, key: str) -> Any:
        """Lookup without touching the hit/miss counters."""
        value = self._memory.get(key)
        if value is None:
            value = self._load(key)
        return value

    def get(self, key: str) -> Any:
        """Counted lookup, promoting disk entries into the memory tier."""
        value = self._memory.get(key)
        if value is not None:
            with self._counter_lock:
                self.memory_hits += 1
            return value
        value = self._load(key)
        with self._counter_lock:
            if value is None:
                self.misses += 1
            else:
                self.disk_hits += 1
        return value

    def put(self, key: str, value: Any, metadata: Optional[dict] = None) -> None:
        """Record ``value`` in both tiers (the disk append is atomic)."""
        self._memory[key] = value
        with self._counter_lock:
            self.stores += 1
        if self._disk is not None:
            self._disk.put(key, self._encode(key, value, metadata))

    # ------------------------------------------------------------------

    def set_observer(self, observer) -> None:
        """Install a ``(op, seconds)`` duration sink on the disk tier
        (see :attr:`ShardedStore.observer`); no-op when memory-only."""
        if self._disk is not None:
            self._disk.observer = observer

    def compact(self) -> None:
        """Force-compact the disk tier (drops dead, expired and, past the
        size bound, oldest records)."""
        if self._disk is not None:
            self._disk.compact()

    def storage_stats(self) -> Dict[str, int]:
        """Segment-log health counters for /metrics (empty when memory-only)."""
        if self._disk is None:
            return {}
        return self._disk.stats()

    def counters(self) -> Dict[str, int]:
        """Hit/miss accounting for progress reports and /metrics."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": len(self._memory),
        }
