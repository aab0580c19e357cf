"""Record framing for append-only segment files.

A segment is a flat file of back-to-back records.  Each record is::

    header  = struct("<III")  -> (meta_len, data_len, crc32(meta + data))
    meta    = compact JSON (key, operation, timestamp, claim owner, ...)
    data    = opaque value bytes (the store never interprets them)

Appends are strictly at the end of the file, so a record's byte offset
is stable for its whole life and an in-memory index can point straight
into the segment.  A writer that dies mid-append leaves a **torn tail**:
an incomplete header, a payload shorter than the header promises, or a
CRC mismatch.  Readers stop scanning at the first torn record (every
record before it is intact by construction); the next writer — which
holds the shard's exclusive file lock — truncates the torn bytes away
before appending, so the log self-heals without ever rewriting history.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

#: (meta_len, data_len, crc32(meta + data))
_HEADER = struct.Struct("<III")

HEADER_SIZE = _HEADER.size

#: Hard cap on a single record's payload; a corrupt header that decodes
#: to an absurd length is recognised as torn instead of allocating GBs.
MAX_RECORD_BYTES = 256 * 1024 * 1024


def encode_meta(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def pack_record(meta: dict, data: bytes) -> bytes:
    meta_bytes = encode_meta(meta)
    crc = zlib.crc32(meta_bytes + data) & 0xFFFFFFFF
    return _HEADER.pack(len(meta_bytes), len(data), crc) + meta_bytes + data


@dataclass(frozen=True)
class Record:
    """One decoded record and where its payload lives in the segment."""

    offset: int  # byte offset of the record header
    end_offset: int  # byte offset just past the record
    meta: dict
    data_offset: int  # byte offset of the payload within the segment
    data_len: int


def scan_segment(
    path: str, start: int = 0
) -> Tuple[list, int, bool]:
    """Decode every complete record from ``start`` to the end of ``path``.

    Returns ``(records, end_offset, torn)`` where ``end_offset`` is the
    offset just past the last *intact* record and ``torn`` reports
    whether trailing bytes had to be ignored (incomplete or corrupt).
    A missing file yields ``([], 0, False)``.
    """
    records = []
    torn = False
    offset = start
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            while True:
                header = handle.read(HEADER_SIZE)
                if not header:
                    break
                if len(header) < HEADER_SIZE:
                    torn = True
                    break
                meta_len, data_len, crc = _HEADER.unpack(header)
                if meta_len + data_len > MAX_RECORD_BYTES:
                    torn = True
                    break
                body = handle.read(meta_len + data_len)
                if len(body) < meta_len + data_len:
                    torn = True
                    break
                if zlib.crc32(body) & 0xFFFFFFFF != crc:
                    torn = True
                    break
                try:
                    meta = json.loads(body[:meta_len].decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    torn = True
                    break
                if not isinstance(meta, dict):
                    torn = True
                    break
                data_offset = offset + HEADER_SIZE + meta_len
                end = data_offset + data_len
                records.append(Record(offset, end, meta, data_offset, data_len))
                offset = end
    except OSError:
        return [], 0, False
    return records, offset, torn


def read_data(path: str, data_offset: int, data_len: int) -> Optional[bytes]:
    """The payload bytes of one indexed record; ``None`` if unreadable
    (segment compacted away by another process, truncated, ...)."""
    try:
        with open(path, "rb") as handle:
            handle.seek(data_offset)
            blob = handle.read(data_len)
    except OSError:
        return None
    if len(blob) != data_len:
        return None
    return blob


def append_records(path: str, packed: bytes, truncate_at: Optional[int] = None) -> int:
    """Append pre-packed record bytes; returns the offset they start at.

    ``truncate_at`` (when given) first cuts a torn tail off the segment —
    callers must hold the shard's exclusive file lock, which guarantees
    no other writer is mid-append.
    """
    flags = os.O_RDWR | os.O_CREAT
    fd = os.open(path, flags, 0o644)
    try:
        if truncate_at is not None and os.fstat(fd).st_size > truncate_at:
            os.ftruncate(fd, truncate_at)
        offset = os.lseek(fd, 0, os.SEEK_END)
        os.write(fd, packed)
    finally:
        os.close(fd)
    return offset
