"""Simulation statistics.

:class:`SimulationStats` aggregates everything the experiments need:
IPC, branch-prediction and cache behaviour, how operands were delivered
(bypass network vs register file banks), register-file-cache events
(fills, prefetches, caching decisions), the per-cycle register occupancy
distributions of Figure 3 and the value read-count distribution used by
the Section 3 statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, Optional


@dataclass
class OccupancySample:
    """Counts from one cycle for the Figure 3 distributions."""

    live_needed: int
    live_ready: int


@dataclass(slots=True)
class SimulationStats:
    """Counters collected during one simulation run.

    Slotted: the pipeline bumps these counters several times per
    simulated instruction, and slot access skips the per-instance
    dictionary.
    """

    benchmark: str = ""
    architecture: str = ""

    cycles: int = 0
    committed_instructions: int = 0
    fetched_instructions: int = 0

    branch_predictions: int = 0
    branch_mispredictions: int = 0

    icache_hits: int = 0
    icache_misses: int = 0
    dcache_hits: int = 0
    dcache_misses: int = 0

    loads_forwarded: int = 0

    #: How operands were obtained at issue time.
    operands_from_bypass: int = 0
    operands_from_file: int = 0

    #: Stall cycle accounting (per stall reason, counted per event).
    #: ``dispatch_stalls_window`` reads 0 at the Table 1 configuration:
    #: the window and the ROB both hold 128 entries and dispatch checks
    #: the ROB first, so only a window smaller than the ROB (the
    #: validation fuzzer's) stalls on it.
    dispatch_stalls_window: int = 0
    dispatch_stalls_registers: int = 0
    dispatch_stalls_rob: int = 0
    dispatch_stalls_lsq: int = 0
    issue_stalls_ports: int = 0
    issue_stalls_fu: int = 0
    issue_stalls_fill: int = 0

    #: Register-file architecture specific counters.
    regfile_statistics: Dict[str, int] = field(default_factory=dict)

    #: Value read-count distribution (reads → number of values).
    value_read_distribution: Counter = field(default_factory=Counter)

    #: Per-cycle occupancy distributions (Figure 3), only when enabled.
    occupancy_needed: Counter = field(default_factory=Counter)
    occupancy_ready: Counter = field(default_factory=Counter)

    #: Maximum observed occupancies (window, ROB).
    max_window_occupancy: int = 0
    max_rob_occupancy: int = 0
    max_int_registers_in_use: int = 0
    max_fp_registers_in_use: int = 0

    #: Commit-order checksum, set only when a commit observer was attached
    #: (see :mod:`repro.validate.observer`).  ``None`` — the overwhelmingly
    #: common case — is excluded from :meth:`to_dict` so that golden
    #: fixtures and benchmark stats digests are byte-identical with and
    #: without the validation subsystem in the tree.
    commit_checksum: Optional[str] = None

    #: Sampling report, set only when the run was produced by the
    #: systematic-sampling engine (see :mod:`repro.sampling`): the spec,
    #: per-window IPCs, and the mean ± confidence-interval summary.
    #: ``None`` (exact runs) is excluded from :meth:`to_dict` for the same
    #: fixture-stability reason as ``commit_checksum``.
    sampling: Optional[dict] = None

    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.committed_instructions / self.cycles

    @property
    def branch_misprediction_rate(self) -> float:
        if self.branch_predictions == 0:
            return 0.0
        return self.branch_mispredictions / self.branch_predictions

    @property
    def branch_prediction_accuracy(self) -> float:
        return 1.0 - self.branch_misprediction_rate

    @property
    def icache_hit_rate(self) -> float:
        total = self.icache_hits + self.icache_misses
        return self.icache_hits / total if total else 1.0

    @property
    def dcache_hit_rate(self) -> float:
        total = self.dcache_hits + self.dcache_misses
        return self.dcache_hits / total if total else 1.0

    @property
    def bypass_operand_fraction(self) -> float:
        total = self.operands_from_bypass + self.operands_from_file
        return self.operands_from_bypass / total if total else 0.0

    # ------------------------------------------------------------------
    # Figure 3 helpers
    # ------------------------------------------------------------------

    def record_occupancy(self, sample: OccupancySample) -> None:
        self.occupancy_needed[sample.live_needed] += 1
        self.occupancy_ready[sample.live_ready] += 1

    def occupancy_cdf(self, which: str = "needed", max_registers: int = 32) -> list[float]:
        """Cumulative % of cycles with at most N live registers.

        ``which`` selects the "Value & Instruction" distribution
        (``"needed"``) or the "Value & Ready Instruction" one (``"ready"``).
        """
        counts = self.occupancy_needed if which == "needed" else self.occupancy_ready
        total = sum(counts.values())
        if total == 0:
            return [100.0] * (max_registers + 1)
        cdf: list[float] = []
        running = 0
        for registers in range(max_registers + 1):
            running += counts.get(registers, 0)
            cdf.append(100.0 * running / total)
        # Anything above max_registers is folded into the last bucket.
        overflow = sum(count for value, count in counts.items() if value > max_registers)
        if overflow:
            cdf[-1] = 100.0 * (running + overflow) / total
        return cdf

    # ------------------------------------------------------------------
    # value reuse (Section 3 statistic)
    # ------------------------------------------------------------------

    def record_value_reads(self, reads: int) -> None:
        self.value_read_distribution[reads] += 1

    def read_at_most_once_fraction(self) -> float:
        total = sum(self.value_read_distribution.values())
        if total == 0:
            return 1.0
        at_most_once = self.value_read_distribution.get(0, 0) + self.value_read_distribution.get(1, 0)
        return at_most_once / total

    # ------------------------------------------------------------------
    # serialization (persistent result store, multiprocess transport)
    # ------------------------------------------------------------------

    #: Fields stored as ``Counter`` objects with integer keys.  JSON turns
    #: the keys into strings, so round-tripping needs the explicit list.
    _COUNTER_FIELDS = ("value_read_distribution", "occupancy_needed", "occupancy_ready")

    #: Optional fields omitted from :meth:`to_dict` while unset, so runs
    #: without the corresponding feature serialize exactly as they did
    #: before the field existed (golden fixtures, bench digests).
    _OPTIONAL_FIELDS = ("commit_checksum", "sampling")

    def to_dict(self) -> dict:
        """JSON-serializable dictionary holding every counter of the run."""
        payload: dict = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None and spec.name in self._OPTIONAL_FIELDS:
                continue
            if isinstance(value, dict):  # Counter is a dict subclass
                value = {str(key): count for key, count in value.items()}
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationStats":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        kwargs: dict = {}
        for spec in fields(cls):
            if spec.name not in payload:
                continue
            value = payload[spec.name]
            if spec.name in cls._COUNTER_FIELDS:
                value = Counter({int(key): int(count) for key, count in value.items()})
            elif spec.name == "regfile_statistics":
                value = {str(key): int(count) for key, count in value.items()}
            kwargs[spec.name] = value
        return cls(**kwargs)

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Compact dictionary used by reports and tests."""
        return {
            "benchmark": self.benchmark,
            "architecture": self.architecture,
            "cycles": self.cycles,
            "instructions": self.committed_instructions,
            "ipc": round(self.ipc, 4),
            "branch_accuracy": round(self.branch_prediction_accuracy, 4),
            "icache_hit_rate": round(self.icache_hit_rate, 4),
            "dcache_hit_rate": round(self.dcache_hit_rate, 4),
            "bypass_operand_fraction": round(self.bypass_operand_fraction, 4),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.benchmark} on {self.architecture}: "
            f"IPC={self.ipc:.3f} over {self.cycles} cycles "
            f"({self.committed_instructions} instructions)"
        )
