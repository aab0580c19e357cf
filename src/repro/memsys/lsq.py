"""Load/store queue with store→load forwarding.

Table 1: 64 entries with store-load forwarding; loads may execute when
prior store addresses are known.  The LSQ tracks program order of memory
operations, answers whether a load may issue (all older store addresses
known) and whether its data can be forwarded from an older store to the
same address (in which case the D-cache is not accessed).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

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
        # statistics
        self.forwarded_loads = 0
        self.blocked_loads = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def insert(self, seq: int, is_store: bool) -> LSQEntry:
        """Allocate an entry at dispatch time (program order)."""
        if self.full:
            raise SimulationError("LSQ overflow: insert called while full")
        if self._entries and next(reversed(self._entries)) >= seq:
            raise SimulationError("LSQ entries must be inserted in program order")
        entry = LSQEntry(seq=seq, is_store=is_store)
        self._entries[seq] = entry
        if is_store:
            self._unresolved_stores[seq] = None
        return entry

    def set_address(self, seq: int, address: int) -> None:
        """Record the effective address once the AGU has computed it."""
        entry = self._entries.get(seq)
        if entry is None:
            raise SimulationError(f"no LSQ entry for seq {seq}")
        entry.address = address
        entry.address_ready = True
        self._unresolved_stores.pop(seq, None)

    def load_may_issue(self, seq: int) -> bool:
        """A load may access memory when all older store addresses are known."""
        for oldest in self._unresolved_stores:
            if oldest < seq:
                self.blocked_loads += 1
                return False
            break
        return True

    def forwarding_store(self, seq: int, address: int) -> Optional[int]:
        """Return the seq of the youngest older store to ``address``, if any.

        A hit means the load's data is forwarded inside the LSQ and the
        D-cache is not accessed.
        """
        best: Optional[int] = None
        for other_seq, entry in self._entries.items():
            if other_seq >= seq:
                break
            if entry.is_store and entry.address_ready and entry.address == address:
                best = other_seq
        if best is not None:
            self.forwarded_loads += 1
        return best

    def release(self, seq: int) -> None:
        """Remove the entry at commit (stores) or once the load completes
        and commits."""
        self._entries.pop(seq, None)
        self._unresolved_stores.pop(seq, None)

    def flush_after(self, seq: int) -> None:
        """Squash all entries younger than ``seq`` (branch misprediction)."""
        for other_seq in [s for s in self._entries if s > seq]:
            del self._entries[other_seq]
            self._unresolved_stores.pop(other_seq, None)

    def clear(self) -> None:
        self._entries.clear()
        self._unresolved_stores.clear()

    def occupancy(self) -> int:
        return len(self._entries)
