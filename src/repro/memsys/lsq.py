"""Load/store queue with store→load forwarding.

Table 1: 64 entries with store-load forwarding; loads may execute when
prior store addresses are known.  The LSQ tracks program order of memory
operations, answers whether a load may issue (all older store addresses
known) and whether its data can be forwarded from an older store to the
same address (in which case the D-cache is not accessed).
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, SimulationError


@dataclass(slots=True)
class LSQEntry:
    """One load or store tracked by the queue."""

    seq: int
    is_store: bool
    address: Optional[int] = None  # None until the address is computed
    address_ready: bool = False


class LoadStoreQueue:
    """A unified load/store queue ordered by program order (seq)."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ConfigurationError("LSQ capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, LSQEntry]" = OrderedDict()
        #: Seqs of the stores whose address is not known yet, in program
        #: order (insertion order): the first key is the oldest one, so a
        #: load's ordering check is one comparison, not a queue scan.
        self._unresolved_stores: Dict[int, None] = {}
        #: Address -> ascending seqs of the queued stores whose address is
        #: known and equal to it, so a load's forwarding check reads one
        #: short list instead of scanning the queue.
        self._stores_at: Dict[int, List[int]] = {}
        # statistics
        self.forwarded_loads = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, seq: int, is_store: bool) -> LSQEntry:
        """Allocate an entry at dispatch time (program order)."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise SimulationError("LSQ overflow: insert called while full")
        if entries and next(reversed(entries)) >= seq:
            raise SimulationError("LSQ entries must be inserted in program order")
        entry = LSQEntry(seq, is_store)
        entries[seq] = entry
        if is_store:
            self._unresolved_stores[seq] = None
        return entry

    def set_address(self, seq: int, address: int) -> None:
        """Record the effective address once the AGU has computed it."""
        entry = self._entries.get(seq)
        if entry is None:
            raise SimulationError(f"no LSQ entry for seq {seq}")
        if entry.is_store:
            if entry.address_ready:
                if entry.address == address:
                    return
                self._unindex_store(seq, entry.address)
            stores = self._stores_at.get(address)
            if stores is None:
                self._stores_at[address] = [seq]
            elif stores[-1] < seq:
                stores.append(seq)
            else:
                insort(stores, seq)
            self._unresolved_stores.pop(seq, None)
        entry.address = address
        entry.address_ready = True

    def _unindex_store(self, seq: int, address: Optional[int]) -> None:
        stores = self._stores_at[address]
        stores.remove(seq)
        if not stores:
            del self._stores_at[address]

    def load_may_issue(self, seq: int) -> bool:
        """A load may access memory when all older store addresses are known."""
        for oldest in self._unresolved_stores:  # the first key only
            return oldest >= seq
        return True

    def forwarding_store(self, seq: int, address: int) -> Optional[int]:
        """Return the seq of the youngest older store to ``address``, if any.

        A hit means the load's data is forwarded inside the LSQ and the
        D-cache is not accessed.
        """
        stores = self._stores_at.get(address)
        if stores is None:
            return None
        for store_seq in reversed(stores):
            if store_seq < seq:
                self.forwarded_loads += 1
                return store_seq
        return None

    def release(self, seq: int) -> None:
        """Remove the entry at commit (stores) or once the load completes
        and commits."""
        entry = self._entries.pop(seq, None)
        if entry is not None and entry.is_store:
            if entry.address_ready:
                self._unindex_store(seq, entry.address)
            else:
                self._unresolved_stores.pop(seq, None)
