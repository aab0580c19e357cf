"""Orchestration of fuzzed differential validation runs.

One *seed task* = generate the scenario of a seed, build its trace, and
run the full differential matrix on it.  Seeds are independent, so they
fan out across worker processes through the same
:func:`repro.experiments.scheduler.fan_out` primitive the experiment
harness uses; results cross the process boundary by pickle.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.scheduler import fan_out
from repro.validate.differential import (
    filter_matrix,
    run_differential,
    validation_matrix,
)
from repro.validate.faults import InjectedFault
from repro.validate.fuzzer import generate_scenario
from repro.validate.observer import DEFAULT_CHECKPOINT_INTERVAL
from repro.validate.report import ScenarioValidation, ValidationReport

#: Progress sink for one-line status messages.
ProgressCallback = Callable[[str], None]


@dataclass(frozen=True)
class SeedTask:
    """Everything a worker process needs to validate one seed."""

    seed: int
    quick: bool = False
    name_filter: Optional[str] = None
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    fault: Optional[InjectedFault] = None
    use_trace_replay: bool = True

    def repro_command(self) -> str:
        """The command line reproducing this exact scenario."""
        parts = ["python -m repro.validate", f"--seed {self.seed}"]
        if self.quick:
            parts.append("--quick")
        if self.name_filter:
            parts.append(f"--filter {self.name_filter}")
        if self.fault is not None:
            parts.append(
                f"--inject-fault {self.fault.architecture}:{self.fault.commit_index}"
            )
        if not self.use_trace_replay:
            parts.append("--no-trace-replay")
        return " ".join(parts)


def run_seed(task: SeedTask) -> ScenarioValidation:
    """Validate one seed: scenario generation, replay, differential diff."""
    scenario = generate_scenario(task.seed, quick=task.quick)
    matrix = filter_matrix(validation_matrix(), task.name_filter)
    trace = scenario.build_trace()
    return run_differential(
        trace,
        scenario.config(),
        architectures=matrix,
        scenario=scenario.describe(),
        checkpoint_interval=task.checkpoint_interval,
        fault=task.fault,
        repro=task.repro_command(),
        use_trace_replay=task.use_trace_replay,
    )


def run_validation(
    seeds: Sequence[int],
    quick: bool = False,
    name_filter: Optional[str] = None,
    jobs: int = 1,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    fault: Optional[InjectedFault] = None,
    progress: Optional[ProgressCallback] = None,
    use_trace_replay: bool = True,
) -> ValidationReport:
    """Validate every seed and assemble a :class:`ValidationReport`.

    Raises
    ------
    ConfigurationError
        If ``jobs`` is below 1.
    ValidationError
        If ``name_filter`` matches no architecture, or ``fault`` names
        an unknown one (checked before any simulation runs).
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    full_matrix = validation_matrix()
    matrix = filter_matrix(full_matrix, name_filter)
    if fault is not None and fault.architecture not in matrix:
        # Re-using the differential runner's check would only fire after
        # the first seed simulated; fail fast instead — and distinguish a
        # typo from an architecture the --filter excluded.
        from repro.errors import ValidationError

        if fault.architecture in full_matrix:
            raise ValidationError(
                f"fault targets architecture {fault.architecture!r}, which "
                f"the filter {name_filter!r} excludes (selected: "
                f"{', '.join(matrix)})"
            )
        raise ValidationError(
            f"fault targets unknown architecture {fault.architecture!r} "
            f"(known: {', '.join(full_matrix)})"
        )

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    tasks = [
        SeedTask(
            seed=seed,
            quick=quick,
            name_filter=name_filter,
            checkpoint_interval=checkpoint_interval,
            fault=fault,
            use_trace_replay=use_trace_replay,
        )
        for seed in seeds
    ]
    say(
        f"validate: {len(tasks)} seed(s) x {len(matrix)} architectures + oracle"
        + (f" on {jobs} workers" if jobs > 1 and len(tasks) > 1 else "")
    )
    done = 0

    def on_result(index: int, result: ScenarioValidation) -> None:
        nonlocal done
        done += 1
        verdict = "ok" if result.ok else "DIVERGENT"
        say(
            f"[{done}/{len(tasks)}] seed {tasks[index].seed}: {verdict} "
            f"({result.scenario.get('source')}/{result.scenario.get('benchmark')}, "
            f"{result.oracle.get('count')} commits)"
        )

    scenarios: List[ScenarioValidation] = fan_out(
        tasks, worker=run_seed, jobs=jobs, on_result=on_result
    )
    return ValidationReport(
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        quick=quick,
        seeds=[task.seed for task in tasks],
        architectures=list(matrix),
        scenarios=scenarios,
    )
