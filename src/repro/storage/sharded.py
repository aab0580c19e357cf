"""A sharded, compacting key-value store over append-only segment logs.

This is the traffic-grade storage layer behind the repository's result
and trace stores and the service's job records and job leases.  Design:

* **Sharding.**  Keys (content hashes, job ids) are routed to one of
  ``num_shards`` shard directories by their leading hex byte, so
  concurrent writers mostly touch different files and compaction work
  is bounded per shard.
* **Append-only segments.**  Each shard holds numbered segment files
  (see :mod:`repro.storage.segment`).  A put/delete/claim appends one
  record; nothing is ever rewritten in place, so readers can scan
  without locks and a crash can only ever damage the final record (the
  *torn tail*, skipped by readers and truncated away by the next
  locked writer).
* **In-memory index.**  Each process keeps a per-shard index
  ``key -> (segment, offset)`` built by scanning segments once and then
  *incrementally*: on a miss the shard re-scans only bytes appended
  since the last scan, which is what makes one cache tree shared by
  many processes cheap — another replica's fresh write is picked up by
  a tail scan, not a full reload.
* **Claims.**  A claim is a small leased marker record
  (``owner``/``deadline``); the service's job leases are claims on job
  ids (:mod:`repro.service.fleet`), in a lease log that holds no values.
  Claims expire, so a crashed owner never wedges the fleet.
* **Size bound, compaction.**  When a shard's dead-byte ratio or
  payload budget (``max_bytes / num_shards``) is exceeded, the shard is
  compacted: live records are rewritten into one fresh segment (oldest
  entries evicted first under a size bound) and the old segments are
  deleted.

Cross-process exclusion uses one ``flock`` per shard held only for the
duration of an append or compaction; reads never take the file lock.
"""

from __future__ import annotations

import errno
import os
import re
import threading
import zlib
from dataclasses import dataclass, field
from time import perf_counter as _perf_counter
from time import time as _wall_clock
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos import seams as _seams
from repro.storage import segment as seg

try:  # pragma: no cover - POSIX-only; the no-op fallback keeps imports safe
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Segment files are ``seg-<8-digit id>.log`` inside a shard directory.
_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.log$")

#: Upper bound before appends roll over to a fresh segment file.
SEGMENT_MAX_BYTES = 8 * 1024 * 1024

#: A shard is auto-compacted when dead bytes exceed this share of the log.
COMPACT_DEAD_RATIO = 0.5

#: ... but only once the log is big enough for compaction to matter.
COMPACT_MIN_BYTES = 64 * 1024


@dataclass(frozen=True)
class _Entry:
    """Where one live key's payload lives, plus eviction bookkeeping."""

    ts: float
    segment_id: int
    data_offset: int
    data_len: int
    record_bytes: int  # full on-disk footprint (header + meta + data)


class _Shard:
    """Mutable per-shard state; guarded by ``lock`` within the process."""

    __slots__ = ("directory", "lock", "index", "claims", "claim_bytes",
                 "scanned", "live_data_bytes", "dead_bytes")

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.lock = threading.RLock()
        self.reset()

    def reset(self) -> None:
        """Forget everything scanned, as before the first scan."""
        #: key -> _Entry, in record order (dict insertion order).
        self.index: Dict[str, _Entry] = {}
        #: key -> (owner, absolute deadline).
        self.claims: Dict[str, Tuple[str, float]] = {}
        #: key -> record footprint of its latest claim record.
        self.claim_bytes: Dict[str, int] = {}
        #: segment id -> byte offset scanned so far (the valid end).
        self.scanned: Dict[int, int] = {}
        self.live_data_bytes = 0
        self.dead_bytes = 0


@dataclass
class _Counters:
    compactions: int = 0
    evictions: int = 0
    torn_tails: int = 0
    rebuilds: int = 0
    write_errors: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class ShardedStore:
    """Sharded segment-log store; see the module docstring for the design.

    ``clock`` is injectable (tests drive claim expiry with a fake
    clock); entry timestamps and claim deadlines read it.
    """

    def __init__(
        self,
        root: str,
        num_shards: int = 16,
        max_bytes: Optional[int] = None,
        clock: Callable[[], float] = _wall_clock,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.root = root
        self.num_shards = num_shards
        self.max_bytes = max_bytes
        self.clock = clock
        self.counters = _Counters()
        #: Optional duration sink ``(op, seconds) -> None`` fired after
        #: every append (``"append"``) and compaction (``"compact"``) —
        #: the service hangs its storage spans/histograms here without
        #: this layer knowing anything about telemetry.  Observers must
        #: be fast and non-raising; a ``None`` observer costs one
        #: ``is None`` test on the write path.
        self.observer: Optional[Callable[[str, float], None]] = None
        self._shards: Dict[int, _Shard] = {}
        self._shards_lock = threading.Lock()
        #: Sticky degradation flag: set on the first ENOSPC and never
        #: cleared within the process (a full disk rarely un-fills
        #: itself; a restart after freeing space recovers).  While set,
        #: writes are skipped instead of retried — callers above keep
        #: serving from their memory tiers.
        self._read_only = threading.Event()
        os.makedirs(root, exist_ok=True)

    @property
    def read_only(self) -> bool:
        """Whether the store has degraded to read-only after ENOSPC."""
        return self._read_only.is_set()

    def _degrade(self, error: OSError) -> None:
        self._read_only.set()
        with self.counters.lock:
            self.counters.write_errors += 1

    # ------------------------------------------------------------------
    # shard routing and state
    # ------------------------------------------------------------------

    def shard_of(self, key: str) -> int:
        try:
            bucket = int(key[:2], 16)
        except (ValueError, IndexError):
            bucket = zlib.crc32(key.encode("utf-8")) & 0xFF
        return bucket % self.num_shards

    def _shard(self, index: int) -> _Shard:
        with self._shards_lock:
            shard = self._shards.get(index)
            if shard is None:
                shard = _Shard(os.path.join(self.root, f"shard-{index:02x}"))
                self._shards[index] = shard
        return shard

    def _segment_path(self, shard: _Shard, segment_id: int) -> str:
        return os.path.join(shard.directory, f"seg-{segment_id:08d}.log")

    def _list_segments(self, shard: _Shard) -> List[int]:
        try:
            names = os.listdir(shard.directory)
        except OSError:
            return []
        ids = []
        for name in names:
            match = _SEGMENT_RE.match(name)
            if match:
                ids.append(int(match.group(1)))
        ids.sort()
        return ids

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------

    class _FileLock:
        """Exclusive cross-process lock on one shard (flock on .lock)."""

        def __init__(self, directory: str) -> None:
            self._path = os.path.join(directory, ".lock")
            self._fd: Optional[int] = None

        def __enter__(self) -> "ShardedStore._FileLock":
            os.makedirs(os.path.dirname(self._path), exist_ok=True)
            self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_EX)
            return self

        def __exit__(self, *exc_info) -> None:
            if self._fd is not None:
                if fcntl is not None:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
                os.close(self._fd)
                self._fd = None

    def _file_lock(self, shard: _Shard) -> "ShardedStore._FileLock":
        return ShardedStore._FileLock(shard.directory)

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------

    def _claim_live(self, claim: Tuple[str, float]) -> bool:
        return claim[1] > self.clock()

    def _apply(self, shard: _Shard, record: seg.Record, segment_id: int) -> None:
        """Fold one scanned record into the shard's in-memory state."""
        meta = record.meta
        key = meta.get("k")
        op = meta.get("op")
        if not isinstance(key, str):
            return
        size = record.end_offset - record.offset
        if op == "put":
            previous = shard.index.pop(key, None)
            if previous is not None:
                shard.dead_bytes += previous.record_bytes
                shard.live_data_bytes -= previous.data_len
            shard.index[key] = _Entry(
                ts=float(meta.get("t", 0.0)),
                segment_id=segment_id,
                data_offset=record.data_offset,
                data_len=record.data_len,
                record_bytes=size,
            )
            shard.live_data_bytes += record.data_len
        elif op == "del":
            previous = shard.index.pop(key, None)
            if previous is not None:
                shard.dead_bytes += previous.record_bytes
                shard.live_data_bytes -= previous.data_len
            shard.dead_bytes += size  # the tombstone itself dies at compaction
        elif op == "claim":
            owner = meta.get("o")
            deadline = meta.get("d")
            if isinstance(owner, str) and isinstance(deadline, (int, float)):
                if shard.claims.pop(key, None) is not None:
                    shard.dead_bytes += shard.claim_bytes.pop(key, 0)
                shard.claims[key] = (owner, float(deadline))
                shard.claim_bytes[key] = size
        elif op == "rel":
            claim = shard.claims.get(key)
            if claim is not None and claim[0] == meta.get("o"):
                shard.claims.pop(key, None)
                shard.dead_bytes += shard.claim_bytes.pop(key, 0)
            shard.dead_bytes += size

    def _rebuild(self, shard: _Shard) -> None:
        """Re-scan the whole shard from scratch (after compaction races)."""
        shard.reset()
        with self.counters.lock:
            self.counters.rebuilds += 1
        self._refresh(shard)

    def _refresh(self, shard: _Shard) -> None:
        """Fold any bytes appended since the last scan into the index.

        Records are applied in (segment id, offset) order — the order
        they were written in, because appends are serialized by the
        shard file lock and always target the highest-numbered segment.
        """
        ids = self._list_segments(shard)
        known = set(shard.scanned)
        if known - set(ids):
            # A segment we indexed disappeared: another process compacted
            # the shard.  Start over from the surviving files.
            shard.reset()
            with self.counters.lock:
                self.counters.rebuilds += 1
        for segment_id in ids:
            start = shard.scanned.get(segment_id, 0)
            path = self._segment_path(shard, segment_id)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size <= start:
                continue
            records, end, torn = seg.scan_segment(path, start)
            for record in records:
                self._apply(shard, record, segment_id)
            shard.scanned[segment_id] = end
            if torn:
                with self.counters.lock:
                    self.counters.torn_tails += 1

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The payload bytes of ``key``; ``None`` on a miss."""
        shard = self._shard(self.shard_of(key))
        with shard.lock:
            entry = shard.index.get(key)
            if entry is None:
                self._refresh(shard)
                entry = shard.index.get(key)
            if entry is None:
                return None
            data = seg.read_data(
                self._segment_path(shard, entry.segment_id),
                entry.data_offset, entry.data_len,
            )
            if data is None:
                # The segment vanished under us (concurrent compaction);
                # rebuild from the surviving files and retry once.
                self._rebuild(shard)
                entry = shard.index.get(key)
                if entry is None:
                    return None
                data = seg.read_data(
                    self._segment_path(shard, entry.segment_id),
                    entry.data_offset, entry.data_len,
                )
            return data

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def versions(self) -> Dict[str, Tuple[float, int]]:
        """``key -> (write time, payload length)`` of every live key,
        after folding in other processes' appends.

        The stamp changes with every put and survives compaction, so a
        reader that keeps the previous map re-reads only the keys whose
        latest record moved — without reading any payload to find out.
        """
        result: Dict[str, Tuple[float, int]] = {}
        for i in range(self.num_shards):
            shard = self._shard(i)
            with shard.lock:
                self._refresh(shard)
                for key, entry in shard.index.items():
                    result[key] = (entry.ts, entry.data_len)
        return result

    def version(self, key: str) -> Optional[Tuple[float, int]]:
        """The :meth:`versions` stamp of one key, after folding in other
        processes' appends to that key's shard only; ``None`` when the
        key is missing."""
        shard = self._shard(self.shard_of(key))
        with shard.lock:
            self._refresh(shard)
            entry = shard.index.get(key)
        if entry is None:
            return None
        return (entry.ts, entry.data_len)

    def keys(self) -> List[str]:
        """Every live key (refreshes all shards)."""
        return list(self.versions())

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _active_segment(self, shard: _Shard) -> int:
        ids = list(shard.scanned)
        active = max(ids) if ids else 1
        if shard.scanned.get(active, 0) >= SEGMENT_MAX_BYTES:
            active += 1
        return active

    def _append_locked(self, shard: _Shard, meta: dict, data: bytes) -> None:
        """Append one record, compacting the shard if that tipped it over
        its budget; caller holds both shard locks and has refreshed the
        index (so ``scanned`` marks the valid end)."""
        if _seams.active is not None:
            _seams.active.fire(
                "storage.append", op=meta.get("op"), key=meta.get("k"),
            )
        segment_id = self._active_segment(shard)
        path = self._segment_path(shard, segment_id)
        packed = seg.pack_record(meta, data)
        valid_end = shard.scanned.get(segment_id, 0)
        offset = seg.append_records(path, packed, truncate_at=valid_end)
        record = seg.Record(
            offset=offset,
            end_offset=offset + len(packed),
            meta=meta,
            data_offset=offset + len(packed) - len(data),
            data_len=len(data),
        )
        self._apply(shard, record, segment_id)
        shard.scanned[segment_id] = record.end_offset
        # Every kind of record can leave dead bytes behind: a keyspace of
        # claims alone (job leases) must compact too.
        if self._needs_compaction(shard):
            self._compact_locked(shard)

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (last writer wins).

        On ENOSPC the store degrades to read-only instead of raising:
        the write is dropped (callers keep the value in their memory
        tier), ``write_errors`` is counted and :attr:`read_only` goes
        sticky so later writes are skipped without touching the disk.
        """
        if self._read_only.is_set():
            return
        observer = self.observer
        started = _perf_counter() if observer is not None else 0.0
        shard = self._shard(self.shard_of(key))
        with shard.lock, self._file_lock(shard):
            self._refresh(shard)
            try:
                self._append_locked(
                    shard, {"k": key, "op": "put", "t": self.clock()}, data
                )
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._degrade(error)
        if observer is not None:
            observer("append", _perf_counter() - started)

    def delete(self, key: str) -> bool:
        """Append a tombstone; returns whether the key was present."""
        if self._read_only.is_set():
            return False
        shard = self._shard(self.shard_of(key))
        with shard.lock, self._file_lock(shard):
            self._refresh(shard)
            if key not in shard.index:
                return False
            try:
                self._append_locked(
                    shard, {"k": key, "op": "del", "t": self.clock()}, b""
                )
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._degrade(error)
                return False
            return True

    # ------------------------------------------------------------------
    # claims (the primitive under job leases)
    # ------------------------------------------------------------------

    def claim(self, key: str, owner: str, ttl: float) -> Tuple[bool, str]:
        """Try to claim ``key`` for ``owner`` for ``ttl`` seconds.

        Returns ``(True, owner)`` on success (re-claiming one's own key
        renews the deadline) and ``(False, holder)`` when another owner's
        unexpired claim holds the key.

        While :attr:`read_only` (ENOSPC degradation), claims cannot be
        persisted; the grant is returned without a record, degrading
        job leases to a fleet of one.
        """
        if self._read_only.is_set():
            return True, owner
        shard = self._shard(self.shard_of(key))
        with shard.lock, self._file_lock(shard):
            self._refresh(shard)
            current = shard.claims.get(key)
            if current is not None and self._claim_live(current) and current[0] != owner:
                return False, current[0]
            now = self.clock()
            try:
                self._append_locked(
                    shard,
                    {"k": key, "op": "claim", "o": owner, "d": now + ttl, "t": now},
                    b"",
                )
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._degrade(error)
            return True, owner

    def release(self, key: str, owner: str) -> bool:
        """Release ``owner``'s claim on ``key`` (no-op if not held)."""
        if self._read_only.is_set():
            return False
        shard = self._shard(self.shard_of(key))
        with shard.lock, self._file_lock(shard):
            self._refresh(shard)
            current = shard.claims.get(key)
            if current is None or current[0] != owner:
                return False
            try:
                self._append_locked(
                    shard, {"k": key, "op": "rel", "o": owner, "t": self.clock()}, b""
                )
            except OSError as error:
                if error.errno != errno.ENOSPC:
                    raise
                self._degrade(error)
            return True

    def claim_holder(self, key: str) -> Optional[Tuple[str, float]]:
        """The (owner, deadline) of an unexpired claim, else ``None``."""
        shard = self._shard(self.shard_of(key))
        with shard.lock:
            self._refresh(shard)
            current = shard.claims.get(key)
            if current is not None and self._claim_live(current):
                return current
            return None

    # ------------------------------------------------------------------
    # compaction and the size bound
    # ------------------------------------------------------------------

    def _shard_budget(self) -> Optional[float]:
        if self.max_bytes is None:
            return None
        return self.max_bytes / self.num_shards

    def _needs_compaction(self, shard: _Shard) -> bool:
        budget = self._shard_budget()
        if budget is not None and shard.live_data_bytes > budget:
            return True
        total = shard.live_data_bytes + shard.dead_bytes
        return (
            total >= COMPACT_MIN_BYTES
            and shard.dead_bytes > COMPACT_DEAD_RATIO * total
        )

    def _compact_locked(self, shard: _Shard) -> None:
        """Rewrite the shard's live records into one fresh segment.

        Under a size bound the oldest entries (by timestamp, then write
        order) are evicted until the shard's payload fits its budget.
        Caller holds both locks.
        """
        observer = self.observer
        compact_started = _perf_counter() if observer is not None else 0.0
        live: List[Tuple[str, _Entry, bytes]] = []
        for key, entry in shard.index.items():
            data = seg.read_data(
                self._segment_path(shard, entry.segment_id),
                entry.data_offset, entry.data_len,
            )
            if data is None:
                continue
            live.append((key, entry, data))
        live.sort(key=lambda item: item[1].ts)  # stable: ties keep write order

        evicted = 0
        budget = self._shard_budget()
        if budget is not None:
            payload = sum(len(data) for _, _, data in live)
            while live and payload > budget:
                _, _, data = live.pop(0)
                payload -= len(data)
                evicted += 1

        claims = {
            key: (claim, shard.claim_bytes.get(key, 0))
            for key, claim in shard.claims.items()
            if self._claim_live(claim)
        }

        old_ids = self._list_segments(shard)
        new_id = (max(old_ids) if old_ids else 0) + 1
        tmp_path = os.path.join(shard.directory, f".compact-{new_id:08d}.tmp")
        blob = bytearray()
        for key, entry, data in live:
            blob += seg.pack_record({"k": key, "op": "put", "t": entry.ts}, data)
        for key, ((owner, deadline), _) in claims.items():
            blob += seg.pack_record(
                {"k": key, "op": "claim", "o": owner, "d": deadline, "t": deadline},
                b"",
            )
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, bytes(blob))
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, self._segment_path(shard, new_id))
        for segment_id in old_ids:
            try:
                os.unlink(self._segment_path(shard, segment_id))
            except OSError:
                pass

        # Rebuild the in-memory state to mirror exactly what was written.
        shard.reset()
        records, end, _ = seg.scan_segment(self._segment_path(shard, new_id))
        for record in records:
            self._apply(shard, record, new_id)
        shard.scanned[new_id] = end
        with self.counters.lock:
            self.counters.compactions += 1
            self.counters.evictions += evicted
        if observer is not None:
            observer("compact", _perf_counter() - compact_started)

    def compact(self) -> None:
        """Force-compact every shard that has any data on disk."""
        if self._read_only.is_set():
            return
        for i in range(self.num_shards):
            shard = self._shard(i)
            if not os.path.isdir(shard.directory):
                continue
            with shard.lock, self._file_lock(shard):
                self._refresh(shard)
                self._compact_locked(shard)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Fleet-facing storage counters (refreshes every shard)."""
        entries = 0
        live_data = 0
        dead = 0
        segments = 0
        for i in range(self.num_shards):
            shard = self._shard(i)
            with shard.lock:
                self._refresh(shard)
                entries += len(shard.index)
                live_data += shard.live_data_bytes
                dead += shard.dead_bytes
                segments += len(shard.scanned)
        with self.counters.lock:
            return {
                "entries": entries,
                "live_data_bytes": live_data,
                "dead_bytes": dead,
                "segment_files": segments,
                "compactions": self.counters.compactions,
                "evictions": self.counters.evictions,
                "torn_tails": self.counters.torn_tails,
                "rebuilds": self.counters.rebuilds,
                "write_errors": self.counters.write_errors,
                "read_only": int(self._read_only.is_set()),
            }
