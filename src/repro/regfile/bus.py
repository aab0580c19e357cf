"""Inter-level transfer buses of the register file cache.

Table 2 of the paper specifies, for each register-file-cache
configuration, the number of buses ``B`` between the two levels; each bus
implies a read port in the lowest level and an extra write port in the
uppermost level.  A transfer occupies its bus for the duration of the
lower-level read plus the upper-level write.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError


class TransferBusSet:
    """A set of buses, each able to carry one value at a time."""

    def __init__(self, count: Optional[int], transfer_latency: int = 2) -> None:
        if count is not None and count <= 0:
            raise ConfigurationError("bus count must be positive or None (unlimited)")
        if transfer_latency <= 0:
            raise ConfigurationError("transfer latency must be positive")
        self.count = count
        self.transfer_latency = transfer_latency
        #: busy-until cycle of each bus (finite case only).
        self._busy_until: List[int] = [0] * (count or 0)
        # statistics (reported by the register file cache as
        # ``bus_transfers`` and ``bus_denied``)
        self.transfers_started = 0
        self.transfers_denied = 0

    @property
    def unlimited(self) -> bool:
        return self.count is None

    def try_start_transfer(self, cycle: int) -> Optional[int]:
        """Try to start a transfer at ``cycle``.

        Returns the completion cycle (value readable from the uppermost
        level from that cycle on), or ``None`` if every bus is busy.
        """
        completion = cycle + self.transfer_latency
        if self.count is None:
            self.transfers_started += 1
            return completion
        busy = self._busy_until
        for index, busy_until in enumerate(busy):
            if busy_until <= cycle:
                busy[index] = completion
                self.transfers_started += 1
                return completion
        self.transfers_denied += 1
        return None
