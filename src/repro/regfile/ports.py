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
                    raise RegisterFileError(
                        f"over-subscribed {self.kind} ports: {used}+{amount} > {count}"
                    )
                self._used = used + amount
                return
            if used != 0:
                raise RegisterFileError(
                    f"oversized {self.kind} request while the bank is busy"
                )
            self._used = count
            return
        self._used += amount


class WriteScheduler:
    """Schedules writes onto a limited number of write ports per cycle."""

    def __init__(self, ports_per_cycle: Optional[int], kind: str = "write") -> None:
        if ports_per_cycle is not None and ports_per_cycle <= 0:
            raise ConfigurationError(f"{kind} port count must be positive or None")
        self.ports_per_cycle = ports_per_cycle
        self.kind = kind
        self._scheduled: Dict[int, int] = {}
        #: Requested cycle from which the next write drops the bookkeeping
        #: of earlier cycles (see :meth:`_prune`); the first write always
        #: does, whatever its cycle (warm-up runs at negative cycles).
        self._prune_at = -(1 << 62)
        # statistics (the single-banked file reports it as ``write_delays``)
        self.delayed_writes = 0

    @property
    def unlimited(self) -> bool:
        return self.ports_per_cycle is None

    def schedule(self, requested_cycle: int) -> int:
        """Reserve a write port at the earliest cycle >= ``requested_cycle``.

        Returns the cycle at which the write actually happens.
        """
        ports = self.ports_per_cycle
        if ports is None:
            return requested_cycle
        if requested_cycle >= self._prune_at:
            self._prune(requested_cycle)
        scheduled = self._scheduled
        cycle = requested_cycle
        while scheduled.get(cycle, 0) >= ports:
            cycle += 1
        scheduled[cycle] = scheduled.get(cycle, 0) + 1
        if cycle != requested_cycle:
            self.delayed_writes += 1
        return cycle

    def reserve(self, cycle: int) -> bool:
        """Reserve a port exactly at ``cycle`` if one is free."""
        ports = self.ports_per_cycle
        if ports is None:
            return True
        if cycle >= self._prune_at:
            self._prune(cycle)
        scheduled = self._scheduled
        used = scheduled.get(cycle, 0)
        if used >= ports:
            return False
        scheduled[cycle] = used + 1
        return True

    def forget_before(self, cycle: int) -> None:
        """Drop bookkeeping for cycles before ``cycle`` (keeps memory flat)."""
        if not self._scheduled:
            return
        for key in [c for c in self._scheduled if c < cycle]:
            del self._scheduled[key]

    def _prune(self, cycle: int) -> None:
        """Forget the cycles before ``cycle``, at most once per 1024 cycles.

        Writes are requested for the current cycle, which never goes
        back, so the earlier cycles can no longer be asked about; pruning
        here keeps memory flat without a per-cycle hook.
        """
        self.forget_before(cycle)
        self._prune_at = cycle + 1024
