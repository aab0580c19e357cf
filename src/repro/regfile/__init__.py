"""Register file architectures — the paper's primary contribution.

Three families of register file organisations are provided, all behind
the common :class:`~repro.regfile.base.RegisterFileModel` interface used
by the pipeline model:

* :class:`~repro.regfile.monolithic.SingleBankedRegisterFile` — the
  conventional monolithic register file with a configurable access
  latency (1 or more cycles) and a configurable number of bypass levels,
  used for the paper's baselines (1-cycle/1-bypass, 2-cycle/2-bypass,
  2-cycle/1-bypass).
* :class:`~repro.regfile.cache.RegisterFileCache` — the two-level
  *register file cache*: a small fully-associative upper bank with
  pseudo-LRU replacement that feeds the functional units, backed by a
  large lower bank holding every physical register, with caching and
  fetch/prefetch policies chosen by name, per-bank ports and
  inter-level buses.
* :class:`~repro.regfile.banked.OneLevelBankedRegisterFile` — the
  single-level multiple-banked organisation sketched in Section 3 of the
  paper (each value lives in exactly one bank, all banks feed the
  functional units).
"""

from repro.regfile.base import (
    OperandSource,
    OperandAccess,
    RegisterFileModel,
    UNLIMITED,
)
from repro.regfile.ports import PortSet, WriteScheduler
from repro.regfile.replacement import PseudoLRU
from repro.regfile.bus import TransferBusSet
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.regfile.cache import RegisterFileCache
from repro.regfile.banked import OneLevelBankedRegisterFile

__all__ = [
    "OperandSource",
    "OperandAccess",
    "RegisterFileModel",
    "UNLIMITED",
    "PortSet",
    "WriteScheduler",
    "PseudoLRU",
    "TransferBusSet",
    "SingleBankedRegisterFile",
    "RegisterFileCache",
    "OneLevelBankedRegisterFile",
]
