"""Submission validation and result rendering for the sweep service.

Two accepted job shapes (exactly one of ``figure``/``points``)::

    {"figure": "figure6",                      # or "all"
     "settings": {"instructions": 2000,
                  "warmup_instructions": 500,
                  "benchmarks": ["gcc", "swim"]},
     "priority": 5}

    {"points": [{"benchmark": "gcc",
                 "architecture": "rfc/default",
                 "factory": {"type": "RegisterFileCacheFactory",
                             "parameters": {"caching": "always"}},
                 "config": {"max_instructions": 2000},
                 "warmup_instructions": 0}],
     "priority": 0}

Every rejection raises :class:`ApiError` carrying an HTTP status and a
stable ``error.code`` — the HTTP layer serializes it verbatim and the
client CLI prints it verbatim, so a bad submission never turns into a
traceback anywhere on the path.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ReproError
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    SimulationCache,
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    plan_experiments,
    render_csv,
)
from repro.experiments.scheduler import SimulationPoint
from repro.pipeline.config import ProcessorConfig
from repro.sampling.spec import SamplingSpec, parse_sampling


class ApiError(Exception):
    """A structured, JSON-serializable request rejection.

    ``retry_after`` (seconds) marks the rejection as *transient*: the
    HTTP layer emits it as a ``Retry-After`` header and well-behaved
    clients back off and retry instead of failing (the 503
    ``overloaded`` rejection of a full queue is the canonical case).
    """

    def __init__(self, status: int, code: str, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def to_dict(self) -> dict:
        error = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"error": error}


#: Factory types explicit-point submissions may reference.
FACTORY_TYPES = {
    "SingleBankedFactory": SingleBankedFactory,
    "RegisterFileCacheFactory": RegisterFileCacheFactory,
    "OneLevelBankedFactory": OneLevelBankedFactory,
    # Friendly aliases.
    "single-banked": SingleBankedFactory,
    "register-file-cache": RegisterFileCacheFactory,
    "one-level-banked": OneLevelBankedFactory,
}

#: ProcessorConfig fields an explicit point may override (flat scalars
#: only; the nested cache/functional-unit configs stay at their Table 1
#: defaults).
_CONFIG_FIELDS = {
    field.name
    for field in dataclasses.fields(ProcessorConfig)
    if field.name not in ("icache", "dcache", "functional_units")
}


@dataclass(frozen=True)
class JobPlan:
    """A validated submission, ready for the executor."""

    kind: str  # "figures" or "points"
    figures: Sequence[str] = ()
    settings: Optional[ExperimentSettings] = None
    points: Sequence[SimulationPoint] = ()
    #: The canonical spec echoed in job records.
    spec: Optional[dict] = None
    #: Wall-clock budget from submission, seconds; ``None`` = unbounded.
    #: Enforced server-side: a job still unfinished ``deadline_s``
    #: after submission fails with cause ``deadline_exceeded``.
    deadline_s: Optional[float] = None

    def plan_points(self) -> List[SimulationPoint]:
        if self.points:  # planned at validation time, figures and explicit alike
            return list(self.points)
        if self.kind == "figures":
            return plan_experiments(list(self.figures), self.settings)
        return []


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def _require_mapping(value, status: int, code: str, what: str) -> dict:
    if not isinstance(value, dict):
        raise ApiError(status, code, f"{what} must be a JSON object")
    return value


def _build_settings(payload: dict) -> ExperimentSettings:
    settings = _require_mapping(
        payload.get("settings", {}), 422, "invalid_settings", "settings"
    )
    known = {"instructions", "warmup_instructions", "benchmarks"}
    unknown = sorted(set(settings) - known)
    if unknown:
        raise ApiError(
            422, "invalid_settings",
            f"unknown settings field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})",
        )
    kwargs = {}
    for field_name, target in (("instructions", "instructions_per_benchmark"),
                               ("warmup_instructions", "warmup_instructions")):
        if field_name in settings:
            value = settings[field_name]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ApiError(422, "invalid_settings",
                               f"settings.{field_name} must be an integer")
            kwargs[target] = value
    if "benchmarks" in settings and settings["benchmarks"] is not None:
        benchmarks = settings["benchmarks"]
        if (not isinstance(benchmarks, list)
                or not all(isinstance(name, str) for name in benchmarks)):
            raise ApiError(422, "invalid_settings",
                           "settings.benchmarks must be a list of names")
        kwargs["benchmarks"] = benchmarks
    try:
        return ExperimentSettings(**kwargs)
    except ReproError as error:
        raise ApiError(422, "invalid_settings", str(error)) from error


def _build_point(
    entry, index: int, sampling: Optional[SamplingSpec] = None
) -> SimulationPoint:
    entry = _require_mapping(entry, 422, "invalid_point",
                             f"points[{index}]")
    benchmark = entry.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise ApiError(422, "invalid_point",
                       f"points[{index}].benchmark must be a benchmark name")
    factory_spec = _require_mapping(
        entry.get("factory", {}), 422, "invalid_point",
        f"points[{index}].factory",
    )
    factory_type = factory_spec.get("type", "RegisterFileCacheFactory")
    factory_cls = FACTORY_TYPES.get(factory_type)
    if factory_cls is None:
        raise ApiError(
            422, "invalid_point",
            f"points[{index}].factory.type {factory_type!r} is unknown "
            f"(known: {', '.join(sorted(FACTORY_TYPES))})",
        )
    parameters = _require_mapping(
        factory_spec.get("parameters", {}), 422, "invalid_point",
        f"points[{index}].factory.parameters",
    )
    try:
        factory = factory_cls(**parameters)
        # Build the register file once, so a factory that cannot build
        # is refused here rather than failing the job at execution.
        factory()
    except (TypeError, ReproError) as error:
        raise ApiError(422, "invalid_point",
                       f"points[{index}].factory: {error}") from error
    overrides = _require_mapping(
        entry.get("config", {}), 422, "invalid_point",
        f"points[{index}].config",
    )
    unknown = sorted(set(overrides) - _CONFIG_FIELDS)
    if unknown:
        raise ApiError(
            422, "invalid_point",
            f"points[{index}].config has unknown field(s): {', '.join(unknown)}",
        )
    try:
        config = ProcessorConfig().with_overrides(**overrides)
    except (TypeError, ReproError) as error:
        raise ApiError(422, "invalid_point",
                       f"points[{index}].config: {error}") from error
    warmup = entry.get("warmup_instructions", 0)
    if not isinstance(warmup, int) or isinstance(warmup, bool) or warmup < 0:
        raise ApiError(
            422, "invalid_point",
            f"points[{index}].warmup_instructions must be a non-negative integer",
        )
    architecture = entry.get("architecture", factory_type)
    if not isinstance(architecture, str) or not architecture:
        raise ApiError(422, "invalid_point",
                       f"points[{index}].architecture must be a string label")
    point = SimulationPoint(
        benchmark=benchmark,
        factory=factory,
        architecture=architecture,
        config=config,
        warmup_instructions=warmup,
        sampling=sampling,
    )
    # Surface bad benchmark names at admission, not at execution.
    try:
        from repro.workloads.profiles import get_profile

        get_profile(benchmark)
    except ReproError as error:
        raise ApiError(422, "invalid_point",
                       f"points[{index}]: {error}") from error
    return point


def _build_sampling(payload: dict) -> Optional[SamplingSpec]:
    """Parse the optional top-level ``sample`` key of a submission.

    Accepts the CLI string form (``"2000:200"`` / ``"2000:200:400"``) or
    a :meth:`SamplingSpec.to_payload` object; anything invalid is a
    structured 422 with ``error.code == "invalid_sampling"``, never a
    traceback.
    """
    if "sample" not in payload or payload["sample"] is None:
        return None
    raw = payload["sample"]
    try:
        if isinstance(raw, str):
            return parse_sampling(raw)
        if isinstance(raw, dict):
            return SamplingSpec.from_payload(raw)
    except ReproError as error:
        raise ApiError(422, "invalid_sampling", str(error)) from error
    raise ApiError(
        422, "invalid_sampling",
        "sample must be a 'STRIDE:WINDOW[:WARMUP]' string or a sampling "
        "spec object",
    )


def validate_submission(payload) -> JobPlan:
    """Turn a raw ``POST /jobs`` body into a :class:`JobPlan` (or raise)."""
    payload = _require_mapping(payload, 400, "bad_request", "request body")
    has_figure = "figure" in payload
    has_points = "points" in payload
    if has_figure == has_points:
        raise ApiError(
            422, "invalid_spec",
            "submission must contain exactly one of 'figure' or 'points'",
        )
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ApiError(422, "invalid_spec", "priority must be an integer")
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        if (isinstance(deadline_s, bool)
                or not isinstance(deadline_s, (int, float))
                or not 0 < deadline_s <= sys.float_info.max):
            raise ApiError(422, "invalid_spec",
                           "deadline_s must be a positive, finite number of seconds")
        deadline_s = float(deadline_s)
    sampling = _build_sampling(payload)

    if has_figure:
        figure = payload["figure"]
        if not isinstance(figure, str):
            raise ApiError(422, "invalid_spec", "figure must be a string")
        if figure == "all":
            figures = list(EXPERIMENTS)
        elif figure in EXPERIMENTS:
            figures = [figure]
        else:
            raise ApiError(
                422, "unknown_figure",
                f"unknown figure {figure!r} "
                f"(known: {', '.join(list(EXPERIMENTS) + ['all'])})",
            )
        settings = _build_settings(payload)
        if sampling is not None:
            settings = dataclasses.replace(settings, sampling=sampling)
        spec = {
            "figure": figure,
            "settings": {
                "instructions": settings.instructions_per_benchmark,
                "warmup_instructions": settings.warmup_instructions,
                "benchmarks": (list(settings.benchmarks)
                               if settings.benchmarks is not None else None),
            },
            "priority": priority,
        }
        if sampling is not None:
            # The echo must round-trip: resumed jobs re-validate their
            # persisted spec, so the sampled plan has to rebuild exactly.
            spec["sample"] = sampling.to_payload()
        if deadline_s is not None:
            spec["deadline_s"] = deadline_s
        # Planning validates the benchmark filter against each figure's
        # suites (a filter that excludes everything surfaces here), and
        # the points are kept on the plan so admission and execution
        # never re-plan the same submission.
        try:
            points = plan_experiments(figures, settings)
        except ReproError as error:
            raise ApiError(422, "invalid_settings", str(error)) from error
        return JobPlan(kind="figures", figures=figures, settings=settings,
                       points=tuple(points), spec=spec, deadline_s=deadline_s)

    raw_points = payload["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ApiError(422, "invalid_spec",
                       "points must be a non-empty list of simulation points")
    points = [
        _build_point(entry, index, sampling=sampling)
        for index, entry in enumerate(raw_points)
    ]
    spec = {"points": list(raw_points), "priority": priority}
    if sampling is not None:
        spec["sample"] = sampling.to_payload()
    if deadline_s is not None:
        spec["deadline_s"] = deadline_s
    return JobPlan(kind="points", points=points, spec=spec,
                   deadline_s=deadline_s)


# ----------------------------------------------------------------------
# result assembly and rendering
# ----------------------------------------------------------------------


def assemble_figure_result(plan: JobPlan, store) -> dict:
    """Build the report payload of a completed figure job.

    Runs the same experiment functions as ``repro.experiments.runner``
    over the now-warm store, so the service's answer for a plan is
    byte-for-byte the runner's answer for the same plan.
    """
    cache = SimulationCache(plan.settings, store)
    results = []
    for name in plan.figures:
        result = EXPERIMENTS[name].run(plan.settings, cache)
        results.append({
            "name": result.name,
            "title": result.title,
            "body": result.body,
            "data": result.data,
        })
    return {
        "kind": "figures",
        "settings": dict(plan.spec["settings"]),
        "results": results,
    }


def assemble_points_result(plan: JobPlan, store) -> dict:
    """Per-point statistics of a completed explicit-points job; every
    point must be stored."""
    entries = []
    for point in plan.points:
        entries.append({
            "benchmark": point.benchmark,
            "architecture": point.architecture,
            "store_key": point.store_key(),
            "stats": store.get(point.store_key()).to_dict(),
        })
    return {"kind": "points", "points": entries}


def result_to_csv(result: dict) -> str:
    """Render a job result payload as the runner's CSV dialect."""
    if result.get("kind") == "figures":
        experiment_results = [
            ExperimentResult(
                name=entry["name"], title=entry["title"],
                body=entry["body"], data=entry["data"],
            )
            for entry in result.get("results", [])
        ]
        return render_csv(experiment_results)
    experiment_results = [
        ExperimentResult(
            name=f"{entry['benchmark']}@{entry['architecture']}",
            title="", body="", data=entry["stats"],
        )
        for entry in result.get("points", [])
    ]
    return render_csv(experiment_results)
