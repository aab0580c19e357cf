"""Register-file-cache geometry and the Table 2 configurations C1–C4.

Table 2 of the paper fixes, for four roughly-equal-area design points,
the port counts of the three architectures compared in Figure 9:

==========  =======================  =======================  =====================================
config      one-cycle single-banked  two-cycle single-banked  register file cache
==========  =======================  =======================  =====================================
C1          3R 2W                    3R 2W                    upper 3R 2W, lower 2W, 2 buses
C2          3R 3W                    3R 3W                    upper 4R 3W, lower 3W, 2 buses
C3          4R 3W                    4R 3W                    upper 4R 4W, lower 4W, 2 buses
C4          4R 4W                    4R 4W                    upper 4R 4W, lower 4W, 3 buses
==========  =======================  =======================  =====================================

Each bus adds a read port to the lowest level and a write port to the
uppermost level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.hwmodel.access_time import access_time_ns
from repro.hwmodel.area import RegisterFileGeometry


@dataclass(frozen=True)
class RegisterFileCacheGeometry:
    """Physical geometry of a two-level register file cache."""

    upper_registers: int = 16
    lower_registers: int = 128
    upper_read_ports: int = 4
    upper_write_ports: int = 4
    lower_write_ports: int = 4
    buses: int = 2
    bits: int = 64

    def __post_init__(self) -> None:
        if self.upper_registers <= 0 or self.lower_registers <= 0:
            raise ModelError("register counts must be positive")
        if min(self.upper_read_ports, self.upper_write_ports,
               self.lower_write_ports, self.buses) < 0:
            raise ModelError("port/bus counts cannot be negative")

    @property
    def upper_bank(self) -> RegisterFileGeometry:
        """Uppermost bank: each bus adds one write port."""
        return RegisterFileGeometry(
            num_registers=self.upper_registers,
            read_ports=self.upper_read_ports,
            write_ports=self.upper_write_ports + self.buses,
            bits=self.bits,
        )

    @property
    def lower_bank(self) -> RegisterFileGeometry:
        """Lowest bank: each bus adds one read port."""
        return RegisterFileGeometry(
            num_registers=self.lower_registers,
            read_ports=self.buses,
            write_ports=self.lower_write_ports,
            bits=self.bits,
        )

    def area_units(self) -> float:
        """Total area in 10Kλ² units (both banks)."""
        return self.upper_bank.area_units() + self.lower_bank.area_units()

    def cycle_time_ns(self) -> float:
        """Processor cycle time: the uppermost bank's access time."""
        upper = self.upper_bank
        return access_time_ns(upper.num_registers, upper.read_ports, upper.write_ports,
                              upper.bits)

    def lower_access_time_ns(self) -> float:
        lower = self.lower_bank
        return access_time_ns(lower.num_registers, lower.read_ports, lower.write_ports,
                              lower.bits)

    def lower_read_latency_cycles(self) -> int:
        """Lower-bank read latency expressed in (upper-bank) cycles."""
        import math

        return max(1, math.ceil(self.lower_access_time_ns() / self.cycle_time_ns()))


@dataclass(frozen=True)
class ArchitectureConfiguration:
    """One Table 2 design point (C1..C4) for all three architectures."""

    name: str
    #: Single-banked read/write ports (shared by the 1- and 2-cycle files).
    single_read_ports: int
    single_write_ports: int
    #: Register file cache geometry.
    cache_geometry: RegisterFileCacheGeometry

    def single_banked_geometry(self, num_registers: int = 128) -> RegisterFileGeometry:
        return RegisterFileGeometry(
            num_registers=num_registers,
            read_ports=self.single_read_ports,
            write_ports=self.single_write_ports,
        )

    def single_banked_area_units(self, num_registers: int = 128) -> float:
        return self.single_banked_geometry(num_registers).area_units()

    def single_banked_access_time_ns(self, num_registers: int = 128) -> float:
        geometry = self.single_banked_geometry(num_registers)
        return access_time_ns(
            geometry.num_registers, geometry.read_ports, geometry.write_ports, geometry.bits
        )


#: The four design points of Table 2.
TABLE2_CONFIGURATIONS: tuple[ArchitectureConfiguration, ...] = (
    ArchitectureConfiguration(
        name="C1",
        single_read_ports=3,
        single_write_ports=2,
        cache_geometry=RegisterFileCacheGeometry(
            upper_read_ports=3, upper_write_ports=2, lower_write_ports=2, buses=2
        ),
    ),
    ArchitectureConfiguration(
        name="C2",
        single_read_ports=3,
        single_write_ports=3,
        cache_geometry=RegisterFileCacheGeometry(
            upper_read_ports=4, upper_write_ports=3, lower_write_ports=3, buses=2
        ),
    ),
    ArchitectureConfiguration(
        name="C3",
        single_read_ports=4,
        single_write_ports=3,
        cache_geometry=RegisterFileCacheGeometry(
            upper_read_ports=4, upper_write_ports=4, lower_write_ports=4, buses=2
        ),
    ),
    ArchitectureConfiguration(
        name="C4",
        single_read_ports=4,
        single_write_ports=4,
        cache_geometry=RegisterFileCacheGeometry(
            upper_read_ports=4, upper_write_ports=4, lower_write_ports=4, buses=3
        ),
    ),
)


#: Reference values reported in the paper's Table 2, used by
#: :mod:`repro.experiments.figure9_table2` and the model-validation tests:
#: name -> (architecture -> (area 10Kλ², cycle time ns)).
PAPER_TABLE2: dict[str, dict[str, tuple[float, float]]] = {
    "C1": {
        "one-cycle": (10921.0, 4.71),
        "two-cycle": (10921.0, 2.35),
        "cache": (10593.0, 2.45),
    },
    "C2": {
        "one-cycle": (15070.0, 4.98),
        "two-cycle": (15070.0, 2.49),
        "cache": (15487.0, 2.55),
    },
    "C3": {
        "one-cycle": (18855.0, 5.22),
        "two-cycle": (18855.0, 2.61),
        "cache": (20529.0, 2.61),
    },
    "C4": {
        "one-cycle": (24163.0, 5.48),
        "two-cycle": (24163.0, 2.74),
        "cache": (25296.0, 2.67),
    },
}
