"""Port accounting helpers.

Two small utilities shared by the register file architectures:

* :class:`PortSet` — a per-cycle counter of read (or write) ports that is
  reset at the start of every cycle; ``None`` means "unlimited".
* :class:`WriteScheduler` — schedules result writes onto a limited number
  of write ports, returning for each result the cycle at which it is
  actually written (and therefore readable from the bank).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError, RegisterFileError


class PortSet:
    """A pool of identical ports consumed within a single cycle."""

    def __init__(self, count: Optional[int], kind: str = "read") -> None:
        if count is not None and count <= 0:
            raise ConfigurationError(f"{kind} port count must be positive or None")
        self.count = count
        self.kind = kind
        self._used = 0
        # statistics
        self.total_claims = 0
        self.denied_claims = 0

    @property
    def unlimited(self) -> bool:
        return self.count is None

    @property
    def used(self) -> int:
        return self._used

    def begin_cycle(self) -> None:
        self._used = 0

    # An instruction may need more operands than the bank has ports (e.g. a
    # two-operand instruction reading a single-read-port bank).  Such a read
    # is serialised over consecutive cycles; it can only start when the bank
    # is otherwise idle, and it consumes the whole port budget of the cycle.

    def available_capped(self, amount: int) -> bool:
        """Whether ``amount`` ports can be claimed this cycle; an oversized
        request is allowed when the bank has not been used yet."""
        count = self.count
        if count is None:
            return True
        if amount <= count:
            return self._used + amount <= count
        return self._used == 0

    def claim_capped(self, amount: int) -> None:
        """Claim ``amount`` ports, or the whole budget for an oversized
        request; callers must check :meth:`available_capped`."""
        if amount < 0:
            raise RegisterFileError("cannot request a negative number of ports")
        count = self.count
        if count is not None:
            used = self._used
            if amount <= count:
                if used + amount > count:
                    self.denied_claims += 1
                    raise RegisterFileError(
                        f"over-subscribed {self.kind} ports: {used}+{amount} > {count}"
                    )
                self._used = used + amount
                self.total_claims += amount
                return
            if used != 0:
                self.denied_claims += 1
                raise RegisterFileError(
                    f"oversized {self.kind} request while the bank is busy"
                )
            self._used = count
            self.total_claims += amount
            return
        self._used += amount
        self.total_claims += amount


class WriteScheduler:
    """Schedules writes onto a limited number of write ports per cycle."""

    def __init__(self, ports_per_cycle: Optional[int], kind: str = "write") -> None:
        if ports_per_cycle is not None and ports_per_cycle <= 0:
            raise ConfigurationError(f"{kind} port count must be positive or None")
        self.ports_per_cycle = ports_per_cycle
        self.kind = kind
        self._scheduled: Dict[int, int] = {}
        # statistics
        self.total_writes = 0
        self.delayed_writes = 0
        self.total_delay_cycles = 0

    @property
    def unlimited(self) -> bool:
        return self.ports_per_cycle is None

    def schedule(self, requested_cycle: int) -> int:
        """Reserve a write port at the earliest cycle >= ``requested_cycle``.

        Returns the cycle at which the write actually happens.
        """
        self.total_writes += 1
        if self.unlimited:
            return requested_cycle
        cycle = requested_cycle
        while self._scheduled.get(cycle, 0) >= self.ports_per_cycle:
            cycle += 1
        self._scheduled[cycle] = self._scheduled.get(cycle, 0) + 1
        if cycle != requested_cycle:
            self.delayed_writes += 1
            self.total_delay_cycles += cycle - requested_cycle
        return cycle

    def ports_free(self, cycle: int) -> bool:
        """Whether at least one port is still free at ``cycle``."""
        if self.unlimited:
            return True
        return self._scheduled.get(cycle, 0) < self.ports_per_cycle

    def reserve(self, cycle: int) -> bool:
        """Reserve a port exactly at ``cycle`` if one is free."""
        if self.unlimited:
            return True
        if self._scheduled.get(cycle, 0) >= self.ports_per_cycle:
            return False
        self._scheduled[cycle] = self._scheduled.get(cycle, 0) + 1
        self.total_writes += 1
        return True

    def forget_before(self, cycle: int) -> None:
        """Drop bookkeeping for cycles before ``cycle`` (keeps memory flat)."""
        if not self._scheduled:
            return
        for key in [c for c in self._scheduled if c < cycle]:
            del self._scheduled[key]
