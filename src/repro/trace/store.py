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
from typing import Optional

from repro.storage import TwoTierCache
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


class TraceStore(TwoTierCache):
    """Decoded traces in a :class:`~repro.storage.TwoTierCache`."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_bytes: Optional[int] = DEFAULT_TRACE_MAX_BYTES,
    ) -> None:
        self.cache_dir = cache_dir
        self.trace_dir = os.path.join(cache_dir, TRACE_SUBDIR) if cache_dir else None
        super().__init__(self.trace_dir, max_bytes=max_bytes)

    def _encode(self, key: str, trace: DecodedTrace, metadata: Optional[dict]) -> bytes:
        """gzip-compressed JSON of the trace (mtime 0: deterministic)."""
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0,
                           compresslevel=COMPRESS_LEVEL) as handle:
            handle.write(json.dumps(trace.to_payload()).encode("utf-8"))
        return buffer.getvalue()

    def _decode(self, key: str, raw: bytes) -> Optional[DecodedTrace]:
        trace = DecodedTrace.from_payload(json.loads(gzip.decompress(raw).decode("utf-8")))
        return trace if trace.key == key else None

    # get and put are defined here, not inherited: perfbench's tracer
    # wraps them by name, one wrapper per function.
    def get(self, key: str) -> Optional[DecodedTrace]:
        """Fetch a trace, promoting disk entries into the memory tier."""
        return TwoTierCache.get(self, key)

    def put(self, trace: DecodedTrace) -> None:
        """Record a trace in both tiers (the disk append is atomic)."""
        TwoTierCache.put(self, trace.key, trace)
