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

A trace key names its *family* (the stream without its length, plus
the frontend fingerprint, see :func:`~repro.trace.schema.trace_family`)
and its length, so :meth:`TraceStore.cover` finds the shortest stored
trace of a family that holds enough instructions from the keys the two
tiers already hold: the disk tier's keys include every trace another
process sharing the directory stored, and none that compaction evicted.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.storage import TwoTierCache
from repro.trace.schema import DecodedTrace, family_length

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


class TraceStore(TwoTierCache):
    """Decoded traces in a :class:`~repro.storage.TwoTierCache`."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self.trace_dir = os.path.join(cache_dir, TRACE_SUBDIR) if cache_dir else None
        super().__init__(
            self.trace_dir, max_bytes=TRACE_MAX_BYTES,
            memory_entries=TRACE_MEMORY_ENTRIES if cache_dir else None,
        )

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
        """Record a trace in both tiers (the disk append is atomic)."""
        TwoTierCache.put(self, trace.key, trace)

    def cover(self, family: str, instructions: int) -> Optional[DecodedTrace]:
        """The shortest stored trace of ``family`` that holds at least
        ``instructions`` instructions, or ``None``.

        The candidates are the keys both tiers hold (the disk tier's after
        folding in other processes' appends), shortest first, each tried
        through the counted :meth:`get`.  A key of another form, such as
        one written before keys named their family, is skipped.
        """
        with self._lock:
            keys = set(self._memory)
        if self._disk is not None:
            keys.update(self._disk.keys())
        candidates = sorted(
            (split[1], key) for key in keys
            if (split := family_length(key)) is not None
            and split[0] == family and split[1] >= instructions
        )
        for _, key in candidates:
            trace = self.get(key)
            if trace is not None:
                return trace
        return None
