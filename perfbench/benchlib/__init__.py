"""The code behind ``perfbench/run.py``: inputs, workloads, checks, tracing.

Everything here drives the simulator through the public entry points
of ``src/repro``; it imports nothing from ``repro.bench`` (the CI perf
matrix), so the two harnesses can change independently.
"""

#: Workload names accepted by ``run.py --workload``.
WORKLOADS = ("point-live", "sweep-cold", "service-warm")
