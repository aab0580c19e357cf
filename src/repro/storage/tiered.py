"""Two-tier cache: a memory dictionary in front of an optional table.

The result store and the trace store are the same policy as the paper's
register file cache: a small fast upper level (a dictionary of decoded
objects) in front of a large lower level (a
:class:`~repro.storage.database.Table` of encoded bytes).  A lower
level hit is decoded once and promoted into the upper level.  A subclass
supplies only its codec, :meth:`TwoTierCache._encode` and
:meth:`TwoTierCache._decode`.  The upper level is kept in
least-recently-used order (a hit through :meth:`~TwoTierCache.get` or
:meth:`~TwoTierCache.peek` refreshes an entry); a subclass may cap it at
``memory_entries``, and an insert past the cap drops the coldest entry
from memory only.  A record that fails to decode, for any
reason, is a counted miss and never an error, and a counted lookup that
meets one also counts it as ``rejected``, so a codec fault that turns
every disk read into a recompute shows in ``/metrics``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.storage.database import Table

#: What :meth:`TwoTierCache._load` returns for a record that does not decode.
_REJECTED = object()


class TwoTierCache:
    """Memory tier plus an optional disk tier, the table ``disk``."""

    def __init__(self, disk: Optional[Table] = None,
                 memory_entries: Optional[int] = None) -> None:
        #: Entry cap of the memory tier; ``None`` never evicts.
        self._memory_entries = memory_entries
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        # Concurrent SweepEngine.execute calls (the service's job threads)
        # share one store; the lock keeps the recency order and the
        # counters exact so /metrics hit rates are trustworthy.  The
        # database serialises its own statements.
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.rejected = 0
        self.stores = 0
        self._disk = disk

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

    def _recall(self, key: str) -> Any:
        """Memory-tier lookup; a hit becomes the most recently used entry.
        The caller holds ``_lock``."""
        value = self._memory.get(key)
        if value is not None:
            self._memory.move_to_end(key)
        return value

    def _remember(self, key: str, value: Any) -> None:
        """Insert into the memory tier, then drop the least recently used
        entries past the cap."""
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            if self._memory_entries is not None:
                while len(self._memory) > self._memory_entries:
                    self._memory.popitem(last=False)

    def _load(self, key: str) -> Any:
        """Decode ``key`` from the disk tier and promote it into memory:
        ``None`` without a record, ``_REJECTED`` if it does not decode."""
        if self._disk is None:
            return None
        raw = self._disk.get(key)
        if raw is None:
            return None
        try:
            value = self._decode(key, raw)
        except Exception:  # noqa: BLE001 - a corrupt record is a miss
            return _REJECTED
        if value is None:
            return _REJECTED
        self._remember(key, value)
        return value

    def peek(self, key: str) -> Any:
        """Lookup without touching the hit/miss counters."""
        with self._lock:
            value = self._recall(key)
        if value is None:
            value = self._load(key)
        return None if value is _REJECTED else value

    def get(self, key: str) -> Any:
        """Counted lookup, promoting disk entries into the memory tier."""
        with self._lock:
            value = self._recall(key)
            if value is not None:
                self.memory_hits += 1
                return value
        value = self._load(key)
        with self._lock:
            if value is _REJECTED:
                self.rejected += 1
                value = None
            if value is None:
                self.misses += 1
            else:
                self.disk_hits += 1
        return value

    def put(self, key: str, value: Any, metadata: Optional[dict] = None) -> None:
        """Record ``value`` in both tiers (the disk write is atomic)."""
        self._remember(key, value)
        with self._lock:
            self.stores += 1
        if self._disk is not None:
            self._disk.put(key, self._encode(key, value, metadata))

    # ------------------------------------------------------------------

    def set_observer(self, observer) -> None:
        """Install a ``(op, seconds)`` duration sink on the disk tier
        (see :attr:`Table.observer`); no-op when memory-only."""
        if self._disk is not None:
            self._disk.observer = observer

    def storage_stats(self) -> Dict[str, int]:
        """Disk-tier counters for /metrics (empty when memory-only)."""
        if self._disk is None:
            return {}
        return self._disk.stats()

    def counters(self) -> Dict[str, int]:
        """Hit/miss accounting for progress reports and /metrics."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "stores": self.stores,
            "entries": len(self._memory),
        }
