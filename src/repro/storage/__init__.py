"""Traffic-grade storage: sharded append-only segment logs.

This package is the persistence layer shared by the result store, the
trace store and the service's control plane (job records and job
leases): :mod:`repro.storage.segment` frames
individual records, :mod:`repro.storage.sharded` provides the
sharded/compacting :class:`~repro.storage.sharded.ShardedStore`, and
:class:`~repro.storage.tiered.TwoTierCache` puts a memory tier in front
of it for the result and trace caches.

Protocol invariants (the full narrative is ``docs/storage.md``):

* **Record framing** — every record is ``struct("<III")`` header
  ``(meta_len, data_len, crc32)`` followed by ``meta_len`` bytes of
  compact sorted JSON metadata and ``data_len`` bytes of opaque
  payload; the CRC-32 covers ``meta + data``.  Either length above
  ``MAX_RECORD_BYTES`` (256 MiB) marks the frame implausible.
* **Append-only** — segments are never modified in place: deletes and
  overwrites append tombstones/new versions, compaction writes a fresh
  segment (``tmp + fsync + rename``) and unlinks the old ones.  A
  reader therefore needs no lock; an in-progress append just looks
  like a torn tail until complete.
* **Torn-tail self-healing** — scanning stops at the first short,
  implausible or CRC-mismatching frame; everything before it is intact
  by the sequential-append argument.  Readers skip the tail, and the
  next writer truncates it away *under the shard flock* before
  appending, so every ``put()`` that returned stays durable.
* **Sharding** — a key (a SHA-256 hex digest for results and traces)
  lands in shard ``int(key[:2], 16) % num_shards`` (a CRC of the key
  when it is not hex); writers serialize per shard on
  ``flock(shard-XX/.lock)`` plus an in-process thread lock.
* **Claims** — ``claim(key, owner, ttl)`` appends a claim record only
  while the key has no unexpired foreign claim (first writer wins under
  the flock), and an expired claim is simply ignorable — crash recovery
  needs no cleanup.  Claims serve only the sweep fleet's job *leases*
  (:mod:`repro.service.fleet`), kept in a lease log that holds no
  values; claims and values never share a key.
"""

from repro.storage.sharded import ShardedStore
from repro.storage.tiered import TwoTierCache

__all__ = ["ShardedStore", "TwoTierCache"]
