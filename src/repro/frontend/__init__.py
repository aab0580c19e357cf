"""Front-end models: branch prediction, instruction cache and fetch."""

from repro.frontend.gshare import GSharePredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit

__all__ = [
    "GSharePredictor",
    "BranchTargetBuffer",
    "FetchUnit",
]
