"""One-level multiple-banked register file.

Section 3 of the paper sketches a *single-level* multiple-banked
organisation (Figure 4a): each logical register is mapped to a physical
register in exactly one of the banks, every bank can feed the functional
units, and each result is written to exactly one bank.  Each bank has few
ports, so the organisation is cheap, but instructions now compete for the
read ports of the specific bank their operands live in.

The paper focuses its evaluation on the multi-level organisation (the
register file cache); this model is provided to support the "extension to
the one-level organization" mentioned in the conclusions and is used in
the ablation benchmarks.
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


class OneLevelBankedRegisterFile(RegisterFileModel):
    """A single-level register file split into several interleaved banks."""

    read_stages = 1
    bypass_levels = 1

    def __init__(
        self,
        num_banks: int = 2,
        read_ports_per_bank: Optional[int] = UNLIMITED,
        write_ports_per_bank: Optional[int] = UNLIMITED,
        name: Optional[str] = None,
    ) -> None:
        if num_banks <= 0:
            raise ConfigurationError("num_banks must be positive")
        self.num_banks = num_banks
        self._read_ports = [
            PortSet(read_ports_per_bank, kind=f"bank{i}-read") for i in range(num_banks)
        ]
        self._writes = [
            WriteScheduler(write_ports_per_bank, kind=f"bank{i}-write")
            for i in range(num_banks)
        ]
        self.name = name or f"one-level banked x{num_banks}"
        # Preallocated per-bank demand counters for port arbitration; the
        # scratch arrays replace a dictionary allocated per issue attempt
        # and are always reset to zero/empty before returning.
        self._bank_demand = [0] * num_banks
        self._banks_touched: list[int] = []
        self.idle = True
        # statistics
        self.reads_from_bypass = 0
        self.reads_from_banks = 0
        self.read_port_stalls = 0
        self.bank_conflicts = 0

    # ------------------------------------------------------------------

    def bank_of(self, register: PhysicalRegister) -> int:
        """Bank holding ``register`` (simple interleaving by index)."""
        return register.index % self.num_banks

    def begin_cycle(self, cycle: int) -> None:
        # Direct stores instead of ``PortSet.begin_cycle()`` calls; the
        # read-port budgets are the only per-cycle state.
        for ports in self._read_ports:
            ports._used = 0
        self.idle = True

    # ------------------------------------------------------------------

    def plan_operand_read(
        self, access: OperandAccess, issue_cycle: int
    ) -> OperandSource:
        state = access.state
        retry = None
        if state.ex_end_cycle is None:
            source = _NOT_READY
        elif issue_cycle + self.read_stages < state.ex_end_cycle + 1:
            source = _NOT_READY
            retry = state.ex_end_cycle
        else:
            access.bank = access.register.index % self.num_banks
            if state.rf_ready_cycle is not None and issue_cycle >= state.rf_ready_cycle:
                source = _FILE
            else:
                source = _BYPASS
        access.source = source
        access.retry_cycle = retry
        return source

    def can_claim_reads(self, accesses: Sequence[OperandAccess]) -> bool:
        demand = self._bank_demand
        touched = self._banks_touched
        for access in accesses:
            if access.source is _FILE:
                bank = access.bank
                if demand[bank] == 0:
                    touched.append(bank)
                demand[bank] += 1
        ok = True
        for bank in touched:
            if ok and not self._read_ports[bank].available_capped(demand[bank]):
                self.read_port_stalls += 1
                self.bank_conflicts += 1
                ok = False
            demand[bank] = 0
        touched.clear()
        return ok

    def claim_reads(self, accesses: Sequence[OperandAccess]) -> None:
        demand = self._bank_demand
        touched = self._banks_touched
        for access in accesses:
            source = access.source
            if source is _FILE:
                bank = access.bank
                if demand[bank] == 0:
                    touched.append(bank)
                demand[bank] += 1
                self.reads_from_banks += 1
            elif source is _BYPASS:
                self.reads_from_bypass += 1
        for bank in touched:
            needed = demand[bank]
            demand[bank] = 0
            self._read_ports[bank].claim_capped(needed)
            self.idle = False
        touched.clear()

    # ------------------------------------------------------------------

    def writeback(
        self,
        register: PhysicalRegister,
        state: ValueState,
        cycle: int,
        window,
    ) -> int:
        bank = self.bank_of(register)
        return self._writes[bank].schedule(cycle)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        ports = self._read_ports[0]
        reads = "inf" if ports.unlimited else str(ports.count)
        return f"{self.name} ({reads}R per bank)"

    def statistics(self) -> dict:
        return {
            "reads_from_bypass": self.reads_from_bypass,
            "reads_from_banks": self.reads_from_banks,
            "read_port_stalls": self.read_port_stalls,
            "bank_conflicts": self.bank_conflicts,
        }
