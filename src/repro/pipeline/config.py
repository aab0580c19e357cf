"""Processor configuration (Table 1 of the paper).

The defaults reproduce Table 1: 8-wide fetch (up to one taken branch),
64KB 2-way caches with 64-byte lines, gshare with 64K entries, a
128-entry instruction window, the functional unit mix and latencies, a
64-entry load/store queue with forwarding, 8-way out-of-order issue,
128 integer + 128 FP physical registers, and an 8-wide commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.execute.functional_units import FunctionalUnitConfig
from repro.isa.instruction import INT_LOGICAL_REGISTERS
from repro.memsys.cache import CacheConfig


#: Fields that must be positive integers.
_POSITIVE_FIELDS = (
    "fetch_width", "decode_width", "issue_width", "commit_width",
    "instruction_window", "rob_size", "lsq_size",
    "num_int_physical", "num_fp_physical",
    "max_instructions", "fetch_buffer_size",
)
#: Every integer field but the optional ``max_cycles``.
_INT_FIELDS = _POSITIVE_FIELDS + ("branch_predictor_entries", "btb_entries")


@dataclass(frozen=True)
class ProcessorConfig:
    """Microarchitectural parameters of the simulated processor."""

    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8

    instruction_window: int = 128
    rob_size: int = 128
    lsq_size: int = 64

    num_int_physical: int = 128
    num_fp_physical: int = 128

    branch_predictor_entries: int = 64 * 1024
    btb_entries: int = 4096

    icache: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024,
        associativity=2,
        line_bytes=64,
        hit_latency=1,
        miss_latency=6,
        dirty_miss_latency=6,
        writeback=False,
    ))
    dcache: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024,
        associativity=2,
        line_bytes=64,
        hit_latency=1,
        miss_latency=6,
        dirty_miss_latency=8,
        writeback=True,
        max_outstanding_misses=16,
    ))

    functional_units: FunctionalUnitConfig = field(default_factory=FunctionalUnitConfig)

    #: Maximum number of committed instructions before the run stops.
    max_instructions: int = 20_000
    #: Hard cap on simulated cycles (guards against livelock bugs).
    max_cycles: int | None = None
    #: Collect the per-cycle register occupancy distributions of Figure 3
    #: (adds simulation time; off by default).
    collect_occupancy: bool = False
    #: Size of the fetch/decode buffer between fetch and rename.
    fetch_buffer_size: int = 16

    def __post_init__(self) -> None:
        # Checked at construction, so a configuration no hardware has
        # never reaches a simulation (a JSON ``true`` or ``2.5`` is a
        # Python bool or float; neither counts anything).
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        max_cycles = self.max_cycles
        if max_cycles is not None and (
                not isinstance(max_cycles, int) or isinstance(max_cycles, bool)
                or max_cycles <= 0):
            raise ConfigurationError("max_cycles must be positive or None")
        if not isinstance(self.collect_occupancy, bool):
            raise ConfigurationError(
                f"collect_occupancy must be a boolean, got {self.collect_occupancy!r}"
            )
        logical = len(INT_LOGICAL_REGISTERS)
        if self.num_int_physical <= logical or self.num_fp_physical <= logical:
            raise ConfigurationError(
                f"need more physical than logical registers "
                f"({logical} logical per class)"
            )

    def with_overrides(self, **overrides) -> "ProcessorConfig":
        """Return a copy with some fields replaced (dataclasses.replace)."""
        from dataclasses import replace

        return replace(self, **overrides)

    @property
    def effective_max_cycles(self) -> int:
        """Cycle cap actually used by the simulator."""
        if self.max_cycles is not None:
            return self.max_cycles
        # Even an IPC of 0.02 terminates; this only guards against livelock.
        return 50 * self.max_instructions + 10_000
