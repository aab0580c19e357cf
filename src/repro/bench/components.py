"""Component microbenchmark kernels: the simulator's building blocks.

Each kernel builds its inputs, drives one building block (the synthetic
workload generator, gshare, the D-cache, the pseudo-LRU of the upper
bank, the register file cache write-back path) through a fixed pass and
returns the number of operations it performed.  The bench runner times
the whole call, set-up included, and reports operations per second as
the ``component/<kernel>`` scenarios.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from repro.execute.scoreboard import ValueState
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import RegisterClass
from repro.memsys.cache import CacheConfig, CacheModel
from repro.regfile.cache import RegisterFileCache
from repro.regfile.replacement import PseudoLRU
from repro.rename.renamer import PhysicalRegister
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload


def workload_generation() -> int:
    """Generate 5000 synthetic gcc instructions."""
    workload = SyntheticWorkload(get_profile("gcc"))
    return sum(1 for _ in workload.instructions(5000))


def gshare_prediction_throughput() -> int:
    """Predict and update a 64K-entry gshare on 2000 fixed branches."""
    predictor = GSharePredictor(num_entries=64 * 1024)
    rng = random.Random(7)
    branches = [(rng.randrange(1 << 20) * 4, rng.random() < 0.8) for _ in range(2000)]
    for pc, taken in branches:
        predicted, checkpoint = predictor.predict(pc)
        predictor.update(pc, taken, checkpoint, predicted)
    return len(branches)


def dcache_accesses() -> int:
    """Service a mixed 4000-address stream on the 64KB 2-way D-cache."""
    cache = CacheModel(CacheConfig())
    rng = random.Random(11)
    addresses = [rng.randrange(1 << 18) & ~0x7 for _ in range(4000)]
    for address in addresses:
        cache.access(address)
    return cache.hits + cache.misses


def pseudo_lru_operations() -> int:
    """Insert/touch churn on a 16-entry pseudo-LRU (the upper bank)."""
    rng = random.Random(3)
    keys = [rng.randrange(128) for _ in range(4000)]
    lru = PseudoLRU(16)
    for key in keys:
        if key in lru:
            lru.touch(key)
        else:
            lru.insert(key)
    return len(lru)


def register_file_cache_writeback_path() -> int:
    """Write back 128 results through the register file cache."""
    registers = [PhysicalRegister(RegisterClass.INT, i) for i in range(128)]
    states = [ValueState(register, producer_seq=index, ex_end_cycle=index)
              for index, register in enumerate(registers)]
    cache = RegisterFileCache(caching="always")
    for cycle, (register, state) in enumerate(zip(registers, states)):
        cache.begin_cycle(cycle)
        cache.writeback(register, state, cycle, window=None)
    return cache.results_cached


#: Every kernel by the name its ``component/<name>`` scenario carries.
KERNELS: Dict[str, Callable[[], int]] = {
    "workload_generation": workload_generation,
    "gshare_prediction_throughput": gshare_prediction_throughput,
    "dcache_accesses": dcache_accesses,
    "pseudo_lru_operations": pseudo_lru_operations,
    "register_file_cache_writeback_path": register_file_cache_writeback_path,
}
