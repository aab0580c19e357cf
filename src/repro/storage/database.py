"""One SQLite database per cache directory.

Every persistent table of the repository lives in
``<cache-dir>/cache.sqlite3`` (:data:`DATABASE_NAME`):

========  ==========================================================
table     rows
========  ==========================================================
results   ``key -> value``: one encoded simulation result per key
traces    ``key, family, length -> value``: one trace blob per key,
          indexed by ``(family, length)`` for covering lookups
jobs      ``seq, id -> record``: the latest record of each job;
          ``seq`` grows with every save (``AUTOINCREMENT``)
claims    ``key -> owner, deadline``: the service's job leases
========  ==========================================================

A process keeps one connection per database file (:func:`open_database`),
shared by every store of that directory and serialised by one Python
lock, so threads of one process never wait in SQLite's busy handler,
whose sleeps are whole milliseconds.  Other processes on the same file
(a second replica, a runner) are covered by the busy timeout.  The
database runs in WAL mode with ``synchronous=NORMAL``: a commit survives
a crash of the process but not a power loss, and readers never block
the writer.

A write that meets a full disk (SQLite's "database or disk is full", or
``ENOSPC``) turns the database read-only for the rest of the process:
later writes are dropped without touching the file, and the stores
above keep serving from memory.

``sqlite3`` is imported by the code that opens a connection, and by the
error checks that only run once one exists, so a process that never
opens a cache directory (a bare simulation, a ``--no-cache`` sweep)
never loads it.
"""

from __future__ import annotations

import errno
import os
import threading
import weakref
from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos import seams as _seams

#: The database file inside a cache directory.
DATABASE_NAME = "cache.sqlite3"

#: Seconds a statement waits for another process's write lock.
BUSY_TIMEOUT_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (key TEXT PRIMARY KEY, value BLOB NOT NULL);
CREATE TABLE IF NOT EXISTS traces (
    key TEXT PRIMARY KEY, family TEXT, length INTEGER, value BLOB NOT NULL);
CREATE INDEX IF NOT EXISTS traces_by_family ON traces (family, length);
CREATE TABLE IF NOT EXISTS jobs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT, id TEXT UNIQUE NOT NULL,
    record TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS claims (
    key TEXT PRIMARY KEY, owner TEXT NOT NULL, deadline REAL NOT NULL);
"""

#: Deletes the oldest-written rows (lowest rowid) of a table until the
#: newest rows fit the byte bound: a row stays while it and every newer
#: row hold at most ``?`` bytes of value.
_EVICT = """
DELETE FROM {table} WHERE rowid IN (
    SELECT rowid FROM (
        SELECT rowid, sum(length(value)) OVER (ORDER BY rowid DESC) AS newer
        FROM {table})
    WHERE newer > ?)
"""


def _disk_full(error: Exception) -> bool:
    import sqlite3  # loaded by the connection that raised

    if isinstance(error, sqlite3.OperationalError):
        return "disk is full" in str(error)
    return isinstance(error, OSError) and error.errno == errno.ENOSPC


class Database:
    """This process's connection to one database file."""

    def __init__(self, path: str) -> None:
        import sqlite3

        self.path = path
        connection = sqlite3.connect(
            path, timeout=BUSY_TIMEOUT_S, isolation_level=None,
            check_same_thread=False,
        )
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA journal_mode=WAL")
        # A small page cache: blobs are read once and decoded above.
        connection.execute("PRAGMA cache_size=-64")
        connection.executescript(_SCHEMA)
        self._connection = connection
        self._inode = os.stat(path).st_ino
        self._lock = threading.Lock()
        #: Sticky: set by the first write that meets a full disk.
        self.read_only = False

    def query(self, sql: str, params: tuple = ()) -> List[tuple]:
        """The rows of one read statement."""
        with self._lock:
            return self._connection.execute(sql, params).fetchall()

    def write(self, sql: str, params: tuple = ()) -> Optional[int]:
        """Run one write statement (one transaction); the number of rows
        it changed, or ``None`` when the write was dropped because the
        database is read-only or the disk just filled up."""
        if self.read_only:
            return None
        try:
            if _seams.active is not None:
                _seams.active.fire("storage.append")
            with self._lock:
                return self._connection.execute(sql, params).rowcount
        except Exception as error:
            if not _disk_full(error):
                raise
            self.read_only = True
            return None


#: Open databases by file path; an entry lives while a store holds it.
_OPEN: "weakref.WeakValueDictionary[str, Database]" = weakref.WeakValueDictionary()
_OPEN_LOCK = threading.Lock()
# A forked child opens its own connections.
os.register_at_fork(after_in_child=_OPEN.clear)


def open_database(cache_dir: str) -> Database:
    """The database of ``cache_dir``, created on first use, opened once
    per process (again if its file was deleted or replaced).

    Raises
    ------
    OSError
        If the directory or the database cannot be created or opened.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(os.path.abspath(cache_dir), DATABASE_NAME)
    with _OPEN_LOCK:
        database = _OPEN.get(path)
        try:
            current = database is not None and os.stat(path).st_ino == database._inode
        except OSError:
            current = False
        if not current:
            import sqlite3

            try:
                database = _OPEN[path] = Database(path)
            except sqlite3.DatabaseError as error:
                raise OSError(f"cannot open {path}: {error}") from error
        return database


class Table:
    """One ``key -> value`` table of a :class:`Database`, the disk tier
    of a :class:`~repro.storage.TwoTierCache`.

    ``derive`` maps a key to the values of the columns between ``key``
    and ``value`` (the ``traces`` table's family and length).  Past
    ``max_bytes`` of values, a put evicts the oldest-written rows.
    """

    def __init__(self, database: Database, name: str,
                 derive: Optional[Callable[[str], Tuple]] = None,
                 max_bytes: Optional[int] = None) -> None:
        self.database = database
        self.name = name
        self._derive = derive
        self._max_bytes = max_bytes
        self._get = f"SELECT value FROM {name} WHERE key = ?"
        self._evict = _EVICT.format(table=name)
        self.evictions = 0
        self.write_errors = 0
        #: Optional ``(op, seconds)`` sink fired after every put
        #: (``"append"``); the service hangs its storage spans here.
        self.observer: Optional[Callable[[str, float], None]] = None

    def get(self, key: str) -> Optional[bytes]:
        rows = self.database.query(self._get, (key,))
        return rows[0][0] if rows else None

    def put(self, key: str, value: bytes) -> None:
        """Store ``value`` under ``key`` (last writer wins); dropped and
        counted in ``write_errors`` when the disk is full."""
        database = self.database
        if database.read_only:
            return
        observer = self.observer
        started = _perf_counter() if observer is not None else 0.0
        row = (key, *self._derive(key), value) if self._derive else (key, value)
        placeholders = ", ".join("?" * len(row))
        sql = f"INSERT OR REPLACE INTO {self.name} VALUES ({placeholders})"
        if database.write(sql, row) is None:
            self.write_errors += 1
        elif self._max_bytes is not None:
            self.evictions += database.write(self._evict, (self._max_bytes,)) or 0
        if observer is not None:
            observer("append", _perf_counter() - started)

    def stats(self) -> Dict[str, int]:
        """Storage counters for /metrics."""
        ((entries, live_bytes),) = self.database.query(
            f"SELECT count(*), coalesce(sum(length(value)), 0) FROM {self.name}"
        )
        return {
            "entries": entries,
            "live_data_bytes": live_bytes,
            "evictions": self.evictions,
            "write_errors": self.write_errors,
            "read_only": int(self.database.read_only),
        }
