"""Persistence: one SQLite database per cache directory.

:mod:`repro.storage.database` opens ``<cache-dir>/cache.sqlite3`` once
per process (:func:`open_database`) and holds its four tables: the
result store's and the trace store's values, the service's job records
and its job leases.  :class:`~repro.storage.database.Table` is one
``key -> value`` table, and :class:`~repro.storage.tiered.TwoTierCache`
puts a memory tier in front of it for the result and trace caches.
The full narrative is ``docs/storage.md``.
"""

from repro.storage.database import Database, Table, open_database
from repro.storage.tiered import TwoTierCache

__all__ = ["Database", "Table", "TwoTierCache", "open_database"]
