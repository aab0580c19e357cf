"""The event stream: a rotated JSONL log on disk, a ring buffer in RAM.

**On disk** (:class:`EventLog`): every writer — one per service
replica — owns one file series ``<events-dir>/<source>-NNNN.jsonl``
and appends one JSON object per line.  Writers never share a file, so
no cross-process locking is needed and a torn final line (a killed
process) damages at most that writer's last event.  Files rotate at
``max_bytes`` and the series is bounded at ``max_files`` (oldest
deleted), so the log can run forever in a fixed footprint.  Every event
carries ``schema`` (:data:`EVENT_SCHEMA_VERSION`), a wall-clock ``ts``,
the writer's ``source`` and a per-writer monotonic ``seq`` (resumed
from disk across restarts).

**In memory** (:class:`EventBus`): the service replica mirrors its own
events into a bounded ring buffer that the ``GET /events`` SSE endpoint
serves from; ``since=<seq>`` resumes a dropped subscriber from the
oldest still-buffered event after its cursor.

:func:`read_events` merges a whole directory back into one stream
ordered by ``(ts, source, seq)`` — the input to ``repro.obs report``
and the chaos timeline checks.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import deque
from time import time as _wall_clock
from typing import Callable, Dict, List, Optional, Tuple

#: Bump when the event payload layout changes; readers skip (and count)
#: lines from other schemas instead of failing.
EVENT_SCHEMA_VERSION = 1

#: Default rotation point of one event file.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

#: Default bound on files kept per writer (oldest deleted beyond it).
DEFAULT_MAX_FILES = 8

#: Encodes one event line, as ``json.dumps(event, separators=(",", ":"),
#: default=str)`` does without building an encoder per call.
EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str)

_FILE_RE = re.compile(r"^(?P<source>.+)-(?P<index>\d{4})\.jsonl$")


def _sanitize_source(source: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.]+", "_", source) or "writer"


class EventLog:
    """One writer's bounded, rotated JSONL series under ``events_dir``.

    ``append`` stamps ``schema``/``ts``/``source``/``seq`` onto the
    event and writes one line.  ENOSPC (and any other write error) is
    absorbed into ``write_errors`` — telemetry must never take the
    service down, mirroring the job store's degraded-durability rule.
    """

    def __init__(
        self,
        events_dir: str,
        source: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
        clock: Callable[[], float] = _wall_clock,
    ) -> None:
        if max_bytes < 1 or max_files < 1:
            raise ValueError("max_bytes and max_files must be positive")
        self.events_dir = events_dir
        self.source = _sanitize_source(source)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.clock = clock
        self.write_errors = 0
        self._lock = threading.Lock()
        self._handle = None
        self._index = 0
        self._seq = 0
        try:
            os.makedirs(events_dir, exist_ok=True)
            self._resume()
        except OSError:
            self.write_errors += 1

    # ------------------------------------------------------------------

    def _series(self) -> List[Tuple[int, str]]:
        """This source's existing ``(index, path)`` files, oldest first."""
        entries = []
        try:
            names = os.listdir(self.events_dir)
        except OSError:
            return []
        for name in names:
            match = _FILE_RE.match(name)
            if match is None or match.group("source") != self.source:
                continue
            entries.append(
                (int(match.group("index")),
                 os.path.join(self.events_dir, name))
            )
        entries.sort()
        return entries

    def _resume(self) -> None:
        """Continue the series: next file index, next ``seq`` after the
        last event this source ever wrote (so SSE cursors survive a
        restart instead of rewinding to zero)."""
        series = self._series()
        if not series:
            return
        self._index = series[-1][0]
        last_line = b""
        try:
            with open(series[-1][1], "rb") as handle:
                for line in handle:
                    if line.strip():
                        last_line = line
        except OSError:
            return
        try:
            payload = json.loads(last_line.decode("utf-8"))
            self._seq = int(payload.get("seq", 0))
        except (ValueError, UnicodeDecodeError, TypeError):
            pass  # torn tail: keep the scanned seq so far

    def _path(self, index: int) -> str:
        return os.path.join(self.events_dir, f"{self.source}-{index:04d}.jsonl")

    def _rotate_locked(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        self._index += 1
        for index, path in self._series()[: -(self.max_files - 1) or None]:
            if index > self._index - self.max_files:
                continue
            try:
                os.unlink(path)
            except OSError:
                pass

    def _ensure_handle_locked(self):
        if self._handle is None:
            if self._index == 0:
                self._index = 1
            self._handle = open(  # noqa: SIM115 - long-lived append handle
                self._path(self._index), "a", encoding="utf-8"
            )
        return self._handle

    # ------------------------------------------------------------------

    def append(self, event: dict) -> Optional[dict]:
        """Stamp and write one event; returns the stamped record (or
        ``None`` when the write was dropped on an error)."""
        with self._lock:
            self._seq += 1
            record = {
                "schema": EVENT_SCHEMA_VERSION,
                "seq": self._seq,
                "ts": round(self.clock(), 6),
                "source": self.source,
            }
            record.update(event)
            try:
                handle = self._ensure_handle_locked()
                handle.write(EVENT_ENCODER.encode(record) + "\n")
                handle.flush()
                if handle.tell() >= self.max_bytes:
                    self._rotate_locked()
            except (OSError, ValueError):
                self.write_errors += 1
                return None
        return record

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------


def read_events(events_dir: str) -> List[dict]:
    """Every parseable current-schema event under ``events_dir``, merged
    across writers and ordered by ``(ts, source, seq)``.

    Unparseable lines (torn tails) and foreign-schema events are
    skipped, never fatal — the reader mirrors the cache stores' "a bad
    record is a miss" rule.
    """
    events: List[dict] = []
    try:
        names = sorted(os.listdir(events_dir))
    except OSError:
        return []
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        try:
            with open(os.path.join(events_dir, name), "r",
                      encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except ValueError:
                        continue
                    if (
                        isinstance(payload, dict)
                        and payload.get("schema") == EVENT_SCHEMA_VERSION
                    ):
                        events.append(payload)
        except OSError:
            continue
    events.sort(
        key=lambda e: (e.get("ts", 0.0), str(e.get("source", "")),
                       e.get("seq", 0))
    )
    return events


# ----------------------------------------------------------------------
# in-memory ring (SSE backing)
# ----------------------------------------------------------------------


class EventBus:
    """Bounded ring buffer of this replica's events, for SSE subscribers.

    ``publish`` appends an already-stamped event (the :class:`EventLog`
    seq is the cursor); ``since`` returns the buffered events after a
    cursor; ``wait`` blocks until something newer than the cursor
    arrives or the timeout elapses.  Subscribers that fall behind the
    ring's capacity simply resume from the oldest buffered event — the
    on-disk log is the lossless record, the bus is the live feed.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._events: deque = deque(maxlen=capacity)
        self._condition = threading.Condition()
        self._last_seq = 0

    @property
    def last_seq(self) -> int:
        with self._condition:
            return self._last_seq

    def publish(self, event: dict) -> None:
        seq = int(event.get("seq", 0))
        with self._condition:
            self._events.append(event)
            if seq > self._last_seq:
                self._last_seq = seq
            self._condition.notify_all()

    def since(self, cursor: int) -> List[dict]:
        with self._condition:
            return [e for e in self._events if int(e.get("seq", 0)) > cursor]

    def wait(self, cursor: int, timeout: float) -> List[dict]:
        """Events newer than ``cursor``, blocking up to ``timeout``."""
        with self._condition:
            if self._last_seq <= cursor:
                self._condition.wait(timeout)
            return [e for e in self._events if int(e.get("seq", 0)) > cursor]


# ----------------------------------------------------------------------
# span accounting helpers (shared by the report CLI and chaos checks)
# ----------------------------------------------------------------------


def span_pairs(events: List[dict]) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """``(starts, ends)`` of every span event, keyed by ``span_id``."""
    starts: Dict[str, dict] = {}
    ends: Dict[str, dict] = {}
    for event in events:
        kind = event.get("kind")
        span_id = event.get("span_id")
        if not isinstance(span_id, str):
            continue
        if kind == "span_start":
            starts[span_id] = event
        elif kind == "span_end":
            ends[span_id] = event
    return starts, ends


def unfinished_spans(events: List[dict]) -> List[dict]:
    """Span starts with no matching end (a crashed or hung operation)."""
    starts, ends = span_pairs(events)
    return [start for span_id, start in starts.items() if span_id not in ends]
