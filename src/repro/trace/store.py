"""On-disk store of decoded traces.

Traces live in a ``traces/`` subdirectory of the experiment cache
directory, so one ``--cache-dir`` serves both the
:class:`~repro.experiments.store.ResultStore` (sharded segments under
``results/``) and the trace store without any collision.  The disk tier
is a size-bounded :class:`~repro.storage.sharded.ShardedStore`: each
trace is its :meth:`~repro.trace.schema.DecodedTrace.to_bytes` blob
(typed columns, zlib-compressed) appended to a segment log, and when
the store outgrows :data:`TRACE_MAX_BYTES` the oldest traces are
evicted at compaction — traces are pure derived data, so evicting one
only costs a re-decode.  With a disk tier behind it, the memory tier
holds at most :data:`TRACE_MEMORY_ENTRIES` decoded traces, least
recently used out first, so a long-lived service does not keep every
trace it has touched; a memory-only store never evicts, since a trace it
dropped would have to be recorded again.  Unreadable, corrupt,
schema-mismatching or mis-keyed blobs are treated as cache misses.

The store also indexes its traces by *family* (the stream without its
length, plus the frontend fingerprint, see
:func:`~repro.trace.schema.trace_family`), so :meth:`TraceStore.cover`
finds the shortest stored trace of a family that holds enough
instructions.  With a cache dir the index is persisted beside the
traces, in its own one-shard segment log under ``traces/lengths/``:
one small record per stored trace, folded in by every process that
shares the directory.  The index may name a trace that compaction has
since evicted; :meth:`~TraceStore.cover` then skips it.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional, Tuple

from repro.storage import ShardedStore, TwoTierCache
from repro.trace.schema import DecodedTrace, trace_family

#: Subdirectory of the cache dir reserved for traces.
TRACE_SUBDIR = "traces"

#: Size bound for the on-disk trace tier.  Decoded traces are bulky
#: relative to results; bounding the store keeps a long-lived cache
#: tree from growing without limit (oldest traces are evicted first and
#: simply get re-decoded on next use).
TRACE_MAX_BYTES = 1 << 30

#: Decoded traces kept in memory in front of a disk tier.  Every figure
#: at default settings replays the same 18 traces, one per benchmark of
#: the suite; the cap holds the suite at two instruction budgets, so a
#: figure job never cycles its own traces through the disk decoder.  A
#: decoded trace at the default budget (10k instructions) holds
#: 1.9-2.1 MB with its blob and its replay groups, which add 10-40 KB
#: (``tracemalloc``, gcc/swim/fpppp/m88ksim, CPython 3.11), so a full
#: tier holds about 70 MB.
TRACE_MEMORY_ENTRIES = 36

#: Subdirectory of the trace directory holding the family index.
INDEX_SUBDIR = "lengths"


class TraceStore(TwoTierCache):
    """Decoded traces in a :class:`~repro.storage.TwoTierCache`, indexed
    by family and length."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self.trace_dir = os.path.join(cache_dir, TRACE_SUBDIR) if cache_dir else None
        super().__init__(
            self.trace_dir, max_bytes=TRACE_MAX_BYTES,
            memory_entries=TRACE_MEMORY_ENTRIES if cache_dir else None,
        )
        #: family -> {length: trace key} of every trace known to be stored.
        self._families: Dict[str, Dict[int, str]] = {}
        #: The persisted index (``None`` when memory-only), and the
        #: version stamp of each of its records already folded in.
        self._index: Optional[ShardedStore] = (
            ShardedStore(os.path.join(self.trace_dir, INDEX_SUBDIR), num_shards=1)
            if cache_dir else None
        )
        self._folded: Dict[str, Tuple[float, int]] = {}
        self._index_lock = threading.Lock()

    def _encode(self, key: str, trace: DecodedTrace, metadata: Optional[dict]) -> bytes:
        return trace.to_bytes()

    def _decode(self, key: str, raw: bytes) -> Optional[DecodedTrace]:
        trace = DecodedTrace.from_bytes(raw)
        return trace if trace.key == key else None

    # get and put are defined here, not inherited: perfbench's tracer
    # wraps them by name, one wrapper per function.
    def get(self, key: str) -> Optional[DecodedTrace]:
        """Fetch a trace, promoting disk entries into the memory tier."""
        return TwoTierCache.get(self, key)

    def put(self, trace: DecodedTrace) -> None:
        """Record a trace in both tiers (the disk append is atomic) and in
        the family index."""
        TwoTierCache.put(self, trace.key, trace)
        family = trace_family(trace.workload, trace.frontend)
        length = len(trace.instructions)
        with self._index_lock:
            self._families.setdefault(family, {})[length] = trace.key
        if self._index is not None:
            payload = {"family": family, "instructions": length}
            self._index.put(trace.key, json.dumps(payload).encode("utf-8"))

    # ------------------------------------------------------------------
    # the family index
    # ------------------------------------------------------------------

    def _fold_index(self) -> None:
        """Fold the index records other processes appended since the last
        call into :attr:`_families` (the caller holds ``_index_lock``)."""
        index = self._index
        if index is None:
            return
        for key, stamp in index.versions().items():
            if self._folded.get(key) == stamp:
                continue
            try:
                payload = json.loads(index.get(key) or b"")
                family = payload["family"]
                length = int(payload["instructions"])
            except (ValueError, KeyError, TypeError):
                continue  # a record that does not decode names no trace
            self._folded[key] = stamp
            self._families.setdefault(family, {})[length] = key

    def cover(self, family: str, instructions: int) -> Optional[DecodedTrace]:
        """The shortest stored trace of ``family`` that holds at least
        ``instructions`` instructions, or ``None``.

        Each candidate is a counted :meth:`get`; one that is no longer
        stored (evicted by compaction) leaves the index of this process
        and the next longer one is tried.
        """
        with self._index_lock:
            self._fold_index()
            candidates = sorted(
                (length, key)
                for length, key in self._families.get(family, {}).items()
                if length >= instructions
            )
        for length, key in candidates:
            trace = self.get(key)
            if trace is not None:
                return trace
            with self._index_lock:
                lengths = self._families.get(family, {})
                if lengths.get(length) == key:
                    del lengths[length]
        return None
