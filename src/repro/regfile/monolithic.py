"""Conventional single-banked (monolithic) register file.

This models the paper's baselines:

* 1-cycle access, one level of bypass (the ideal, non-pipelined file),
* 2-cycle access, two levels of bypass (pipelined file with full bypass),
* 2-cycle access, one level of bypass (pipelined file with the same
  bypass complexity as the register file cache).

Reads and writes can be limited to a configurable number of ports, which
is what the area/performance trade-off experiments (Figure 8, Table 2,
Figure 9) sweep.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.execute.scoreboard import ValueState
from repro.regfile.base import (
    OperandAccess,
    OperandSource,
    RegisterFileModel,
    UNLIMITED,
)
from repro.regfile.ports import PortSet, WriteScheduler
from repro.rename.renamer import PhysicalRegister

# Enum members bound once, as in ``repro.pipeline.processor``.
_BYPASS = OperandSource.BYPASS
_FILE = OperandSource.FILE
_NOT_READY = OperandSource.NOT_READY


class SingleBankedRegisterFile(RegisterFileModel):
    """A monolithic register file with N-cycle access and B bypass levels."""

    def __init__(
        self,
        latency: int = 1,
        bypass_levels: Optional[int] = None,
        read_ports: Optional[int] = UNLIMITED,
        write_ports: Optional[int] = UNLIMITED,
        name: Optional[str] = None,
    ) -> None:
        if latency <= 0:
            raise ConfigurationError("register file latency must be positive")
        resolved_bypass = latency if bypass_levels is None else bypass_levels
        if not 1 <= resolved_bypass <= latency:
            raise ConfigurationError(
                "bypass_levels must be between 1 and the register file latency"
            )
        self.read_stages = latency
        self.bypass_levels = resolved_bypass
        self.read_ports = PortSet(read_ports, kind="read")
        self.writes = WriteScheduler(write_ports, kind="write")
        self.name = name or (
            f"single-banked {latency}-cycle, {resolved_bypass}-bypass"
        )
        self.idle = True
        # statistics
        self.reads_from_bypass = 0
        self.reads_from_file = 0
        self.read_port_stalls = 0

    # ------------------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        # Direct store instead of ``read_ports.begin_cycle()``.  The only
        # per-cycle state is the read-port budget, so the file is idle
        # until ``claim_reads`` uses it again.
        self.read_ports._used = 0
        self.idle = True

    # ------------------------------------------------------------------

    def plan_operand_read(
        self, access: OperandAccess, issue_cycle: int
    ) -> OperandSource:
        state = access.state
        retry = None
        if state.ex_end_cycle is None:
            source = _NOT_READY
        else:
            earliest_ex = (
                state.ex_end_cycle + 1 + (self.read_stages - self.bypass_levels)
            )
            if issue_cycle + self.read_stages < earliest_ex:
                source = _NOT_READY
                retry = earliest_ex - self.read_stages
            # The operand is obtainable.  It comes from the register file
            # when the read (starting at issue) can already see the written
            # value; otherwise it rides the bypass network.
            elif (state.rf_ready_cycle is not None
                  and issue_cycle >= state.rf_ready_cycle):
                source = _FILE
            else:
                source = _BYPASS
        access.source = source
        access.retry_cycle = retry
        return source

    def can_claim_reads(self, accesses: Sequence[OperandAccess]) -> bool:
        if self.read_ports.count is None:
            return True
        needed = 0
        for access in accesses:
            if access.source is _FILE:
                needed += 1
        if needed == 0:
            return True
        available = self.read_ports.available_capped(needed)
        if not available:
            self.read_port_stalls += 1
        return available

    def claim_reads(self, accesses: Sequence[OperandAccess]) -> None:
        needed = 0
        bypassed = 0
        for access in accesses:
            source = access.source
            if source is _FILE:
                needed += 1
            elif source is _BYPASS:
                bypassed += 1
        if needed:
            self.read_ports.claim_capped(needed)
            self.idle = False
        self.reads_from_file += needed
        self.reads_from_bypass += bypassed

    # ------------------------------------------------------------------

    def writeback(
        self,
        register: PhysicalRegister,
        state: ValueState,
        cycle: int,
        window,
    ) -> int:
        write_cycle = self.writes.schedule(cycle)
        return write_cycle

    # ------------------------------------------------------------------

    def describe(self) -> str:
        reads = "inf" if self.read_ports.unlimited else str(self.read_ports.count)
        writes = "inf" if self.writes.unlimited else str(self.writes.ports_per_cycle)
        return f"{self.name} ({reads}R/{writes}W)"

    def statistics(self) -> dict:
        return {
            "reads_from_bypass": self.reads_from_bypass,
            "reads_from_file": self.reads_from_file,
            "read_port_stalls": self.read_port_stalls,
            "write_delays": self.writes.delayed_writes,
        }
