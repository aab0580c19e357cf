"""The bench harness: the working tree against a base revision.

``python -m repro.bench --base REV`` runs every ``BENCHMARK.json``
workload of ``perfbench/run.py`` on REV's ``src/`` and on the working
tree's, alternating, in one session; judges each end-to-end metric
against its bound; runs the two self-relative overhead gates; and
writes the next ``BENCH_<n>.json``.  See ``docs/benchmarking.md``.
"""

from repro.bench.gates import IN_PASS_OVERHEAD_BOUND, overhead_gates
from repro.bench.runner import BenchError, run_bench
from repro.bench.verdict import judge

__all__ = [
    "BenchError",
    "IN_PASS_OVERHEAD_BOUND",
    "judge",
    "overhead_gates",
    "run_bench",
]
