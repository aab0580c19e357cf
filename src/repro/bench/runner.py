"""The benchmark runner behind ``python -m repro.bench``.

:class:`BenchmarkRunner` executes the scenario matrix from
:mod:`repro.bench.scenarios`, times every scenario the way the scenario
asks (best of ``repeats`` runs, or once), lets each scenario map its
outcome — statistics digest included — onto a
:class:`~repro.bench.report.ScenarioResult`, and assembles a
:class:`~repro.bench.report.BenchReport` that is written as the next
``BENCH_<n>.json`` in the performance trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, List, Optional, Sequence

from repro.bench.report import (
    BenchReport,
    BenchReportError,
    ScenarioResult,
    calibration_score,
    environment_fingerprint,
    next_report_index,
    peak_rss_kilobytes,
)
from repro.bench.scenarios import Scenario, scenario_matrix

#: Progress sink for one-line status messages.
ProgressCallback = Callable[[str], None]


@dataclass
class BenchmarkRunner:
    """Runs the benchmark matrix and produces a :class:`BenchReport`.

    ``quick`` shrinks the instruction budgets (for CI); ``repeats`` is
    the number of timed runs of each best-of scenario, of which the best
    is reported (minimum wall time is the standard noise-robust
    estimator for deterministic workloads).
    """

    quick: bool = False
    repeats: int = 2
    name_filter: Optional[str] = None
    progress: Optional[ProgressCallback] = None
    #: The scenarios to run, mainly for tests; defaults to the full matrix.
    scenarios: Optional[Sequence[Scenario]] = None

    def selected(self) -> List[Scenario]:
        """The scenarios whose name contains ``name_filter``, in order.

        Raises :class:`BenchReportError` when none does, so a mistyped
        filter cannot pass as an empty run.
        """
        scenarios = (self.scenarios if self.scenarios is not None
                     else scenario_matrix(self.quick))
        chosen = [s for s in scenarios
                  if self.name_filter is None or self.name_filter in s.name]
        if not chosen:
            raise BenchReportError(
                f"no scenario name contains {self.name_filter!r}"
            )
        return chosen

    def measure(self, scenario: Scenario) -> ScenarioResult:
        """Time ``scenario`` as it asks and map its outcome to a result."""
        runs = max(1, self.repeats) if scenario.best_of_repeats else 1
        best = float("inf")
        for _ in range(runs):
            started = time.perf_counter()
            outcome = scenario.run()
            best = min(best, time.perf_counter() - started)
        return scenario.result(outcome, best, runs)

    def run(self, index: int) -> BenchReport:
        """Execute every selected scenario and assemble the report."""
        scenarios = self.selected()
        total = len(scenarios)
        self._say(f"bench: {total} scenarios ({'quick' if self.quick else 'full'} "
                  f"matrix), {max(1, self.repeats)} repeats each")
        calibration = calibration_score()
        results = []
        for done, scenario in enumerate(scenarios, 1):
            result = self.measure(scenario)
            results.append(result)
            unit = "cycles" if result.cycles is not None else "ops"
            self._say(f"[{done}/{total}] {result.name}: {result.rate:,.1f} "
                      f"{unit}/s ({result.wall_seconds:.3f}s)")
        environment = environment_fingerprint()
        environment["peak_rss_kb"] = peak_rss_kilobytes()
        return BenchReport(
            index=index,
            created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            quick=self.quick,
            environment=environment,
            calibration_score=calibration,
            scenarios=results,
        )

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


def run_and_save(
    output_dir: str,
    quick: bool = False,
    repeats: int = 2,
    index: Optional[int] = None,
    index_dirs: Sequence[str] = (),
    name_filter: Optional[str] = None,
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
        name_filter=name_filter,
        progress=progress,
    )
    report = runner.run(resolved)
    path = report.save(output_dir)
    return report, path
