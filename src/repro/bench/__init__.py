"""Performance subsystem: benchmark matrix, reports and the CI perf gate.

``python -m repro.bench`` runs a fixed matrix of simulation, sweep,
service, store and component scenarios, and writes the next schema-versioned
``BENCH_<n>.json`` of the repository's performance trajectory;
``python -m repro.bench compare`` diffs two reports and fails on
regressions beyond a threshold.  See ``docs/benchmarking.md``.
"""

from repro.bench.report import (
    BenchReport,
    BenchReportError,
    Comparison,
    ScenarioDelta,
    ScenarioResult,
    compare_reports,
    environment_fingerprint,
    next_report_index,
)
from repro.bench.runner import BenchmarkRunner, run_and_save
from repro.bench.scenarios import (
    ComponentScenario,
    SampledSweepScenario,
    SimulationScenario,
    component_scenarios,
    headline_scenario,
    sampled_sweep_scenarios,
    simulation_scenarios,
)

__all__ = [
    "BenchReport",
    "BenchReportError",
    "BenchmarkRunner",
    "Comparison",
    "ComponentScenario",
    "ScenarioDelta",
    "ScenarioResult",
    "SampledSweepScenario",
    "SimulationScenario",
    "compare_reports",
    "component_scenarios",
    "environment_fingerprint",
    "headline_scenario",
    "next_report_index",
    "run_and_save",
    "sampled_sweep_scenarios",
    "simulation_scenarios",
]
