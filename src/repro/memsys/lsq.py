"""Load/store queue with store→load forwarding.

Table 1: 64 entries with store-load forwarding; loads may execute when
prior store addresses are known.  The core is stream driven, so every
load and store carries its effective address from the start
(``DynamicInstruction`` gives memory operations one) and a store's
address is known the moment it is dispatched: no load ever waits for an
older store address, and the queue keeps only what the pipeline reads —
its occupancy, for the dispatch stall, and an index of the queued stores
by address, for forwarding.  A load whose data an older queued store to
the same address provides is forwarded inside the queue and does not
access the D-cache.

The pipeline's dispatch and commit stages update the queue in place
(``occupancy``, ``youngest``, ``stores_at``) with their program-order
checks; a store without an address at dispatch is a
``SimulationError``, not a modelled case.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError


class LoadStoreQueue:
    """A unified load/store queue in program order."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ConfigurationError("LSQ capacity must be positive")
        self.capacity = capacity
        #: Loads and stores dispatched and not yet committed.
        self.occupancy = 0
        #: Sequence number of the youngest memory operation dispatched;
        #: while the queue is not empty it is the youngest queued one.
        self.youngest = -1
        #: Address -> ascending seqs of the queued stores to it, so a
        #: load's forwarding check reads one short list instead of
        #: scanning the queue.  Stores enter in program order and commit
        #: in program order, so each list is appended at the tail and
        #: popped at the head.
        self.stores_at: Dict[int, List[int]] = {}
        # statistics
        self.forwarded_loads = 0

    def forwarding_store(self, seq: int, address: int) -> Optional[int]:
        """Return the seq of the youngest older store to ``address``, if any.

        A hit means the load's data is forwarded inside the LSQ and the
        D-cache is not accessed.
        """
        stores = self.stores_at.get(address)
        if stores is None:
            return None
        for store_seq in reversed(stores):
            if store_seq < seq:
                self.forwarded_loads += 1
                return store_seq
        return None
