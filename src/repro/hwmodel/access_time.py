"""Register file access-time model (ns, λ=0.5µm process).

The access time of a multi-ported register file is modelled, in the same
spirit as CACTI, as the sum of

* a fixed sense/drive term,
* an address-decode term growing with ``log2(num_registers)``,
* a word-line term growing with the physical row length
  (``bits × cell_side``), and
* a bit-line term growing with the physical column height
  (``num_registers × cell_side``),

where ``cell_side = c0 + c1·(read_ports + write_ports)`` is the same cell
geometry used by the area model.

The four coefficients are calibrated by least squares against the eight
access/cycle-time points reported in Table 2 of the paper (the 1-cycle
single-banked file with 128 registers at 3R2W…4R4W, and the uppermost
bank of the register file cache with 16 registers at its four port
configurations).  The calibration reproduces those points to within a few
percent; :mod:`repro.experiments.figure9_table2` tabulates model vs
paper values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ModelError
from repro.hwmodel.area import (
    CELL_BASE_LAMBDA,
    CELL_TRACK_LAMBDA,
    DEFAULT_REGISTER_BITS,
)

#: Calibration points from Table 2: (num_registers, read_ports, write_ports,
#: access_time_ns).  For the register file cache the uppermost bank has
#: R read ports and W + B write ports (each bus adds a write port).
_CALIBRATION_POINTS: tuple[tuple[int, int, int, float], ...] = (
    # one-cycle single-banked, 128 registers
    (128, 3, 2, 4.71),
    (128, 3, 3, 4.98),
    (128, 4, 3, 5.22),
    (128, 4, 4, 5.48),
    # register file cache uppermost bank, 16 registers
    (16, 3, 2 + 2, 2.45),
    (16, 4, 3 + 2, 2.55),
    (16, 4, 4 + 2, 2.61),
    (16, 4, 4 + 3, 2.67),
)


def _cell_side(read_ports: int, write_ports: int) -> float:
    return CELL_BASE_LAMBDA + CELL_TRACK_LAMBDA * (read_ports + write_ports)


def _features(num_registers: int, read_ports: int, write_ports: int,
              bits: int) -> np.ndarray:
    side = _cell_side(read_ports, write_ports)
    return np.array(
        [
            1.0,
            float(np.log2(num_registers)),
            bits * side / 10_000.0,
            num_registers * side / 10_000.0,
        ]
    )


@lru_cache(maxsize=1)
def calibrated_constants() -> tuple[float, float, float, float]:
    """Least-squares coefficients (k_fixed, k_decode, k_wordline, k_bitline)."""
    rows = [
        _features(registers, reads, writes, DEFAULT_REGISTER_BITS)
        for registers, reads, writes, _ in _CALIBRATION_POINTS
    ]
    targets = [target for *_, target in _CALIBRATION_POINTS]
    matrix = np.vstack(rows)
    coefficients, *_ = np.linalg.lstsq(matrix, np.array(targets), rcond=None)
    return tuple(float(c) for c in coefficients)  # type: ignore[return-value]


def access_time_ns(
    num_registers: int,
    read_ports: int,
    write_ports: int,
    bits: int = DEFAULT_REGISTER_BITS,
) -> float:
    """Access time in ns of a register file bank.

    Raises
    ------
    ModelError
        For non-positive register counts or a port-less bank.
    """
    if num_registers <= 0:
        raise ModelError("num_registers must be positive")
    if read_ports < 0 or write_ports < 0 or read_ports + write_ports == 0:
        raise ModelError("a register file needs at least one port")
    if bits <= 0:
        raise ModelError("bits must be positive")
    coefficients = np.array(calibrated_constants())
    features = _features(num_registers, read_ports, write_ports, bits)
    value = float(coefficients @ features)
    # The fit is excellent inside the calibrated range; clamp to a small
    # positive floor so extreme extrapolations (e.g. 1 register, 1 port)
    # never return a non-physical non-positive delay.
    return max(value, 0.1)


def calibration_error() -> float:
    """Maximum relative error of the model over the calibration points."""
    worst = 0.0
    for registers, reads, writes, target in _CALIBRATION_POINTS:
        predicted = access_time_ns(registers, reads, writes)
        worst = max(worst, abs(predicted - target) / target)
    return worst
