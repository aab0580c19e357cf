"""On-disk store of decoded traces.

Traces live in the ``traces`` table of the cache directory's database
(:mod:`repro.storage.database`), beside the
:class:`~repro.experiments.store.ResultStore`'s ``results`` table, so
one ``--cache-dir`` serves both.  Each row holds a trace's
:meth:`~repro.trace.schema.DecodedTrace.to_bytes` blob (typed columns,
zlib-compressed), and once the table holds more than
:data:`TRACE_MAX_BYTES` of blobs a put evicts the oldest-written
traces — traces are pure derived data, so evicting one only costs a
re-decode.  With a disk tier behind it, the memory tier holds at most
:data:`TRACE_MEMORY_ENTRIES` decoded traces, least recently used out
first, so a long-lived service does not keep every trace it has
touched; a memory-only store never evicts, since a trace it dropped
would have to be recorded again.  Unreadable, corrupt,
schema-mismatching or mis-keyed blobs are treated as cache misses.

A trace key names its *family* (the stream without its length, plus
the frontend fingerprint, see :func:`~repro.trace.schema.trace_family`)
and its length, and a put files both in the row's ``family`` and
``length`` columns, so :meth:`TraceStore.cover` finds the shortest
stored trace of a family that holds enough instructions with one
indexed query, merged with the memory tier's keys: the table holds
every trace another process sharing the directory stored, and none
that eviction dropped.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.storage import Table, TwoTierCache, open_database
from repro.trace.schema import DecodedTrace, family_length

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


def _family_columns(key: str) -> Tuple[Optional[str], Optional[int]]:
    """A trace row's ``family`` and ``length``; both NULL for a key of
    another form."""
    return family_length(key) or (None, None)


class TraceStore(TwoTierCache):
    """Decoded traces in a :class:`~repro.storage.TwoTierCache`."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        super().__init__(
            Table(open_database(cache_dir), "traces", derive=_family_columns,
                  max_bytes=TRACE_MAX_BYTES) if cache_dir else None,
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
        """Record a trace in both tiers (the disk write is atomic)."""
        TwoTierCache.put(self, trace.key, trace)

    def cover(self, family: str, instructions: int) -> Optional[DecodedTrace]:
        """The shortest stored trace of ``family`` that holds at least
        ``instructions`` instructions, or ``None``.

        The candidates are the memory tier's keys and the disk tier's
        rows of the family, shortest first, each tried through the
        counted :meth:`get`.  A key of another form, such as one written
        before keys named their family, is skipped.
        """
        with self._lock:
            candidates = {
                (split[1], key) for key in self._memory
                if (split := family_length(key)) is not None
                and split[0] == family and split[1] >= instructions
            }
        if self._disk is not None:
            candidates.update(self._disk.database.query(
                "SELECT length, key FROM traces WHERE family = ? AND length >= ?",
                (family, instructions),
            ))
        for _, key in sorted(candidates):
            trace = self.get(key)
            if trace is not None:
                return trace
        return None
