"""Analytical register-file area and access-time models.

The paper uses the area/access-time models of Llosa & Arazabal (UPC
technical report, in Spanish) — an extension of the CACTI cache model —
configured for a λ=0.5µm process, and reports areas in 10Kλ² units and
cycle times in ns for four configurations C1–C4 (Table 2).  Neither the
report nor the model code is available, so this package implements models
with the same functional form (multi-ported register cells whose side
grows linearly with the port count; access time composed of decode,
word-line, bit-line and sense terms) and calibrates the constants against
the twelve (area, cycle-time) points of Table 2.  See
``docs/architecture.md`` ("The hardware model") for how the models feed
the experiments, and :mod:`repro.experiments.figure9_table2` for the
model-vs-paper rows of Table 2.
"""

from repro.hwmodel.area import RegisterFileGeometry, area_lambda2, AREA_UNIT
from repro.hwmodel.access_time import access_time_ns, calibrated_constants
from repro.hwmodel.configurations import (
    RegisterFileCacheGeometry,
    ArchitectureConfiguration,
    TABLE2_CONFIGURATIONS,
    PAPER_TABLE2,
)
from repro.hwmodel.pareto import DesignPoint, pareto_frontier

__all__ = [
    "RegisterFileGeometry",
    "area_lambda2",
    "AREA_UNIT",
    "access_time_ns",
    "calibrated_constants",
    "RegisterFileCacheGeometry",
    "ArchitectureConfiguration",
    "TABLE2_CONFIGURATIONS",
    "PAPER_TABLE2",
    "DesignPoint",
    "pareto_frontier",
]
