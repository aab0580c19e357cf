"""The benchmark runner behind ``python -m repro.bench``.

:class:`BenchmarkRunner` executes the scenario matrix from
:mod:`repro.bench.scenarios`, times every scenario (best of ``repeats``
runs), hashes the resulting statistics as a determinism guard, and
assembles a :class:`~repro.bench.report.BenchReport` that is written as
the next ``BENCH_<n>.json`` in the performance trajectory.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, List, Optional, Sequence

from repro.bench.report import (
    BenchReport,
    ScenarioResult,
    calibration_score,
    environment_fingerprint,
    next_report_index,
    peak_rss_kilobytes,
)
from repro.bench.scenarios import (
    ComponentScenario,
    SampledSweepScenario,
    ServiceScenario,
    SimulationScenario,
    StoreScenario,
    SweepScenario,
    component_scenarios,
    sampled_sweep_scenarios,
    service_scenarios,
    simulation_scenarios,
    store_scenarios,
    sweep_scenarios,
)

#: Progress sink for one-line status messages.
ProgressCallback = Callable[[str], None]


def _stats_digest(stats) -> str:
    payload = json.dumps(stats.to_dict(), sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class BenchmarkRunner:
    """Runs the benchmark matrix and produces a :class:`BenchReport`.

    ``quick`` shrinks the instruction budgets (for CI); ``repeats`` is
    the number of timed runs per scenario, of which the best is reported
    (minimum wall time is the standard noise-robust estimator for
    deterministic workloads).
    """

    quick: bool = False
    repeats: int = 2
    include_components: bool = True
    name_filter: Optional[str] = None
    progress: Optional[ProgressCallback] = None
    #: Scenario overrides, mainly for tests; defaults to the full matrix.
    simulations: Optional[Sequence[SimulationScenario]] = None
    sweeps: Optional[Sequence[SweepScenario]] = None
    sampled_sweeps: Optional[Sequence[SampledSweepScenario]] = None
    services: Optional[Sequence[ServiceScenario]] = None
    stores: Optional[Sequence[StoreScenario]] = None
    components: Optional[Sequence[ComponentScenario]] = None
    results: List[ScenarioResult] = field(default_factory=list)

    # ------------------------------------------------------------------

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _selected(self, scenarios: Sequence) -> List:
        if self.name_filter is None:
            return list(scenarios)
        return [s for s in scenarios if self.name_filter in s.name]

    def _time(self, run: Callable[[], object]) -> tuple[float, object]:
        """Best wall time over ``repeats`` runs, plus the last result."""
        best = float("inf")
        result: object = None
        for _ in range(max(1, self.repeats)):
            started = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - started
            best = min(best, elapsed)
        return best, result

    # ------------------------------------------------------------------

    def run_simulation(self, scenario: SimulationScenario) -> ScenarioResult:
        wall, stats = self._time(scenario.run)
        cycles = stats.cycles
        instructions = stats.committed_instructions
        return ScenarioResult(
            name=scenario.name,
            kind="simulation",
            wall_seconds=wall,
            repeats=max(1, self.repeats),
            cycles=cycles,
            instructions=instructions,
            cycles_per_second=cycles / wall if wall > 0 else 0.0,
            instructions_per_second=instructions / wall if wall > 0 else 0.0,
            stats_digest=_stats_digest(stats),
            metadata=scenario.metadata(),
        )

    def run_sweep(self, scenario: SweepScenario) -> ScenarioResult:
        """Time one sweep; the primary metric is points per second.

        A sweep is timed once (``repeats`` is ignored): it is long
        compared to single simulations and internally amortized, and the
        compare gate's calibration normalization absorbs machine-speed
        noise the same way it does for the other kinds.
        """
        started = time.perf_counter()
        outcome = scenario.run()
        wall = time.perf_counter() - started
        points = int(outcome["points"])
        metadata = scenario.metadata()
        metadata["scheduler_summary"] = outcome["summary"]
        metadata["points_per_minute"] = round(60.0 * points / wall, 1) if wall else 0.0
        return ScenarioResult(
            name=scenario.name,
            kind="sweep",
            wall_seconds=wall,
            repeats=1,
            operations=points,
            operations_per_second=points / wall if wall > 0 else 0.0,
            stats_digest=str(outcome["stats_digest"]),
            metadata=metadata,
        )

    def run_sampled_sweep(self, scenario: SampledSweepScenario) -> ScenarioResult:
        """Time one exact-vs-sampled sweep; the headline is the speedup.

        Timed once, like the other sweeps.  ``per_point_speedup`` (exact
        replay seconds over sampled seconds, summed across the matrix)
        lands in the metadata — it is a self-relative ratio, so it needs
        no calibration normalization and is what the committed
        trajectory's ≥5× claim refers to.
        """
        started = time.perf_counter()
        outcome = scenario.run()
        wall = time.perf_counter() - started
        points = int(outcome["points"])
        metadata = scenario.metadata()
        metadata["points_per_minute"] = round(60.0 * points / wall, 1) if wall else 0.0
        for key in ("exact_seconds", "sampled_seconds", "per_point_speedup",
                    "sampling", "summary"):
            metadata[key] = outcome[key]
        return ScenarioResult(
            name=scenario.name,
            kind="sweep",
            wall_seconds=wall,
            repeats=1,
            operations=points,
            operations_per_second=points / wall if wall > 0 else 0.0,
            stats_digest=str(outcome["stats_digest"]),
            metadata=metadata,
        )

    def run_service(self, scenario: ServiceScenario) -> ScenarioResult:
        """Time one service round trip; the metric is points per second.

        Like sweeps, a service scenario is timed once: it is internally
        amortized and the compare gate normalizes by calibration.  A
        scenario that runs several internal passes (the overhead
        comparisons) reports the wall of the pass its metric describes
        via ``wall_seconds_override``.
        """
        started = time.perf_counter()
        outcome = scenario.run()
        wall = time.perf_counter() - started
        wall = float(outcome.get("wall_seconds_override", wall))
        points = int(outcome["points"])
        metadata = scenario.metadata()
        metadata["job_counters"] = outcome["summary"]
        metadata["points_per_minute"] = round(60.0 * points / wall, 1) if wall else 0.0
        return ScenarioResult(
            name=scenario.name,
            kind="service",
            wall_seconds=wall,
            repeats=1,
            operations=points,
            operations_per_second=points / wall if wall > 0 else 0.0,
            stats_digest=str(outcome["stats_digest"]),
            metadata=metadata,
        )

    def run_store(self, scenario: StoreScenario) -> ScenarioResult:
        """Time one store workout; the metric is operations per second."""
        wall, outcome = self._time(scenario.run)
        operations = int(outcome["operations"])
        metadata = scenario.metadata()
        metadata["store_stats"] = outcome["store_stats"]
        return ScenarioResult(
            name=scenario.name,
            kind="store",
            wall_seconds=wall,
            repeats=max(1, self.repeats),
            operations=operations,
            operations_per_second=operations / wall if wall > 0 else 0.0,
            stats_digest=str(outcome["stats_digest"]),
            metadata=metadata,
        )

    def run_component(self, scenario: ComponentScenario) -> ScenarioResult:
        wall, operations = self._time(scenario.run)
        count = int(operations) if isinstance(operations, int) else 0
        return ScenarioResult(
            name=scenario.name,
            kind="component",
            wall_seconds=wall,
            repeats=max(1, self.repeats),
            operations=count,
            operations_per_second=count / wall if wall > 0 and count else None,
        )

    def run(self, index: int) -> BenchReport:
        """Execute every selected scenario and assemble the report."""
        self.results = []
        simulations = self._selected(
            self.simulations if self.simulations is not None
            else simulation_scenarios(self.quick)
        )
        sweeps = self._selected(
            self.sweeps if self.sweeps is not None
            else sweep_scenarios(self.quick)
        )
        sampled_sweeps = self._selected(
            self.sampled_sweeps if self.sampled_sweeps is not None
            else sampled_sweep_scenarios(self.quick)
        )
        services = self._selected(
            self.services if self.services is not None
            else service_scenarios(self.quick)
        )
        stores = self._selected(
            self.stores if self.stores is not None
            else store_scenarios(self.quick)
        )
        components: Sequence[ComponentScenario] = []
        if self.include_components:
            components = self._selected(
                self.components if self.components is not None
                else component_scenarios(self.quick)
            )
        total = (len(simulations) + len(sweeps) + len(sampled_sweeps)
                 + len(services) + len(stores) + len(components))
        self._say(f"bench: {total} scenarios ({'quick' if self.quick else 'full'} "
                  f"matrix), {max(1, self.repeats)} repeats each")
        calibration = calibration_score()
        done = 0
        for scenario in simulations:
            result = self.run_simulation(scenario)
            self.results.append(result)
            done += 1
            self._say(f"[{done}/{total}] {result.name}: "
                      f"{result.cycles_per_second:,.0f} cycles/s "
                      f"({result.wall_seconds:.3f}s)")
        for scenario in sweeps:
            result = self.run_sweep(scenario)
            self.results.append(result)
            done += 1
            self._say(f"[{done}/{total}] {result.name}: "
                      f"{result.metadata['points_per_minute']:,} points/min "
                      f"({result.wall_seconds:.2f}s)")
        for scenario in sampled_sweeps:
            result = self.run_sampled_sweep(scenario)
            self.results.append(result)
            done += 1
            self._say(f"[{done}/{total}] {result.name}: "
                      f"{result.metadata['per_point_speedup']}x per-point "
                      f"speedup ({result.wall_seconds:.2f}s)")
        for scenario in services:
            result = self.run_service(scenario)
            self.results.append(result)
            done += 1
            self._say(f"[{done}/{total}] {result.name}: "
                      f"{result.metadata['points_per_minute']:,} points/min "
                      f"via HTTP ({result.wall_seconds:.2f}s)")
        for scenario in stores:
            result = self.run_store(scenario)
            self.results.append(result)
            done += 1
            self._say(f"[{done}/{total}] {result.name}: "
                      f"{result.operations_per_second:,.0f} store ops/s "
                      f"({result.wall_seconds:.2f}s)")
        for scenario in components:
            result = self.run_component(scenario)
            self.results.append(result)
            done += 1
            ops = (f"{result.operations_per_second:,.0f} ops/s"
                   if result.operations_per_second else f"{result.wall_seconds:.3f}s")
            self._say(f"[{done}/{total}] {result.name}: {ops}")
        environment = environment_fingerprint()
        environment["peak_rss_kb"] = peak_rss_kilobytes()
        return BenchReport(
            index=index,
            created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            quick=self.quick,
            environment=environment,
            calibration_score=calibration,
            scenarios=self.results,
        )


def run_and_save(
    output_dir: str,
    quick: bool = False,
    repeats: int = 2,
    index: Optional[int] = None,
    index_dirs: Sequence[str] = (),
    name_filter: Optional[str] = None,
    include_components: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> tuple[BenchReport, str]:
    """Run the matrix and write ``BENCH_<n>.json``; returns (report, path).

    The index is chosen as 1 + the highest existing report in
    ``output_dir`` and any extra ``index_dirs`` (typically the repository
    root, so CI runs continue the committed trajectory).
    """
    resolved = index if index is not None else next_report_index(
        [output_dir, *index_dirs]
    )
    runner = BenchmarkRunner(
        quick=quick,
        repeats=repeats,
        include_components=include_components,
        name_filter=name_filter,
        progress=progress,
    )
    report = runner.run(resolved)
    path = report.save(output_dir)
    return report, path
