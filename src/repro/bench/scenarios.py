"""The fixed benchmark matrix executed by :mod:`repro.bench`.

Six kinds of scenarios:

* **simulation scenarios** — end-to-end runs of the cycle-level
  simulator: synthetic profiles × register-file architectures ×
  instruction budgets.  The ``headline`` scenario (gcc on the paper's
  register file cache) is the number the single-run performance work is
  judged by.
* **sweep scenarios** — a figure-style sweep (one workload through a
  matrix of register-file architectures × register budgets) executed
  through the experiment scheduler, measured in points/minute.  The
  ``replay`` variant exercises the trace-once/replay-many engine, the
  ``live`` variant the per-point live frontend it replaced — their ratio
  is the sweep-throughput headline.
* **sampled sweep scenarios** — exact vs sampled replay of one recorded
  trace across an architecture matrix; the headline is the per-point
  speedup of sampling.
* **service scenarios** — a figure plan pushed through the sweep
  service's full HTTP path (submit via :class:`ServiceClient`, execute
  on the service's :class:`~repro.experiments.scheduler.SweepEngine`,
  poll to completion), measured in points/minute — the perf gate's view
  of the :mod:`repro.service` subsystem.  Two of them also gate the
  in-pass overhead of the chaos seams and of telemetry.
* **component scenarios** — microbenchmarks of the simulator's building
  blocks, the plain kernel functions of :mod:`repro.bench.components`,
  each returning its operation count.

Every kind follows one protocol, :class:`Scenario`: the runner times
``run()`` (best of ``repeats`` when ``best_of_repeats``, else once) and
hands the outcome to the scenario's own ``result()``, which maps it onto
a :class:`~repro.bench.report.ScenarioResult`; ``describe()`` is the
scenario's ``--list`` line.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Protocol

from repro.bench.components import KERNELS
from repro.bench.report import ScenarioResult
from repro.errors import SimulationError
from repro.experiments.common import (
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    run_simulation_point,
)
from repro.experiments.store import ResultStore
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.pipeline.stats import SimulationStats
from repro.service.server import ServiceUnderTest
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

#: Extra stream slack so the pipeline never drains before the commit cap.
_STREAM_SLACK = 1.5


class Scenario(Protocol):
    """What the runner needs of every scenario kind."""

    name: str
    #: Timed best of ``repeats`` runs (short, deterministic work) or once
    #: (long, internally amortized work such as sweeps and services).
    best_of_repeats: ClassVar[bool]

    def run(self) -> object:
        """Do the measured work once; returns the kind's outcome."""

    def result(self, outcome, wall: float, repeats: int) -> ScenarioResult:
        """Map one outcome and its wall time onto the report's record."""

    def describe(self) -> str:
        """The scenario's one-line ``--list`` entry."""


def canonical_digest(payloads: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON of each payload, in order.

    The determinism guard of every scenario: two runs of the same code
    must agree on it.
    """
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                                 default=str).encode("utf-8"))
    return digest.hexdigest()


def _operations_result(scenario, kind: str, wall: float, repeats: int,
                       operations: int, digest: object,
                       metadata: Dict[str, object]) -> ScenarioResult:
    return ScenarioResult(
        name=scenario.name,
        kind=kind,
        wall_seconds=wall,
        repeats=repeats,
        operations=operations,
        operations_per_second=operations / wall if wall > 0 else 0.0,
        stats_digest=str(digest),
        metadata=metadata,
    )


def _points_result(scenario, kind: str, outcome: Dict[str, object],
                   wall: float, **extra) -> ScenarioResult:
    """A once-timed result whose operations are points, with points/min."""
    points = int(outcome["points"])
    metadata = scenario.metadata()
    metadata.update(extra)
    metadata["points_per_minute"] = round(60.0 * points / wall, 1) if wall else 0.0
    return _operations_result(scenario, kind, wall, 1, points,
                              outcome["stats_digest"], metadata)


@dataclass(frozen=True)
class SimulationScenario:
    """One (profile, architecture, instruction budget) simulation."""

    name: str
    profile: str
    factory: Callable[[], object]
    instructions: int
    architecture: str
    collect_occupancy: bool = False
    headline: bool = False

    best_of_repeats: ClassVar[bool] = True

    def run(self) -> SimulationStats:
        workload = SyntheticWorkload(get_profile(self.profile))
        config = ProcessorConfig(
            max_instructions=self.instructions,
            collect_occupancy=self.collect_occupancy,
        )
        stream = workload.instructions(int(self.instructions * _STREAM_SLACK))
        return simulate(stream, self.factory, config, benchmark_name=self.profile)

    def metadata(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "architecture": self.architecture,
            "instructions": self.instructions,
            "collect_occupancy": self.collect_occupancy,
            "headline": self.headline,
        }

    def result(self, stats: SimulationStats, wall: float,
               repeats: int) -> ScenarioResult:
        cycles = stats.cycles
        instructions = stats.committed_instructions
        return ScenarioResult(
            name=self.name,
            kind="simulation",
            wall_seconds=wall,
            repeats=repeats,
            cycles=cycles,
            instructions=instructions,
            cycles_per_second=cycles / wall if wall > 0 else 0.0,
            instructions_per_second=instructions / wall if wall > 0 else 0.0,
            stats_digest=canonical_digest([stats.to_dict()]),
            metadata=self.metadata(),
        )

    def describe(self) -> str:
        tag = " [headline]" if self.headline else ""
        return (f"{self.name}: {self.instructions} instructions on "
                f"{self.architecture}{tag}")


@dataclass(frozen=True)
class ComponentScenario:
    """One microbenchmark kernel of :mod:`repro.bench.components`."""

    name: str
    kernel: Callable[[], int]

    best_of_repeats: ClassVar[bool] = True

    def run(self) -> int:
        """Execute the kernel once; returns its operation count."""
        return self.kernel()

    def result(self, count: int, wall: float, repeats: int) -> ScenarioResult:
        return ScenarioResult(
            name=self.name,
            kind="component",
            wall_seconds=wall,
            repeats=repeats,
            operations=count,
            operations_per_second=count / wall if wall > 0 and count else None,
        )

    def describe(self) -> str:
        return f"{self.name}: {self.kernel.__doc__}"


#: The architectures swept by the simulation matrix.
_ARCHITECTURES: Dict[str, Callable[[], object]] = {
    "1-cycle": SingleBankedFactory(latency=1, bypass_levels=1,
                                   name="1-cycle single-banked"),
    "2-cycle-1-bypass": SingleBankedFactory(
        latency=2, bypass_levels=1, name="2-cycle single-banked, 1 bypass"),
    "one-level-banked": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2),
    "register-file-cache": RegisterFileCacheFactory(),
}

#: The headline architecture: the paper's proposal with limited resources.
_HEADLINE_FACTORY = RegisterFileCacheFactory(
    upper_read_ports=4, upper_write_ports=2, lower_write_ports=4, buses=2,
)


def simulation_scenarios(quick: bool = False) -> List[SimulationScenario]:
    """The simulation matrix (reduced budgets in ``quick`` mode)."""
    headline_budget = 4000 if quick else 12000
    matrix_budget = 1500 if quick else 6000
    scenarios = [
        SimulationScenario(
            name="headline/gcc/register-file-cache",
            profile="gcc",
            factory=_HEADLINE_FACTORY,
            instructions=headline_budget,
            architecture="register file cache (4R/2W upper, 2 buses)",
            headline=True,
        )
    ]
    for arch_key, factory in _ARCHITECTURES.items():
        for profile in ("gcc", "swim"):
            scenarios.append(
                SimulationScenario(
                    name=f"matrix/{profile}/{arch_key}",
                    profile=profile,
                    factory=factory,
                    instructions=matrix_budget,
                    architecture=arch_key,
                )
            )
    scenarios.append(
        SimulationScenario(
            name="matrix/gcc/register-file-cache/occupancy",
            profile="gcc",
            factory=_ARCHITECTURES["register-file-cache"],
            instructions=matrix_budget,
            architecture="register-file-cache",
            collect_occupancy=True,
        )
    )
    return scenarios


def headline_scenario(quick: bool = False) -> SimulationScenario:
    """The scenario the ≥1.5× cycles/sec acceptance target refers to."""
    return next(s for s in simulation_scenarios(quick) if s.headline)


# ----------------------------------------------------------------------
# sweep scenarios (trace-once / replay-many engine)
# ----------------------------------------------------------------------

#: The figure-style sweep matrix: every register-file family of the
#: paper (three monolithic timings, one-level banked, the register file
#: cache across caching/fetch policies and a port-constrained point).
_SWEEP_ARCHITECTURES: Dict[str, Callable[[], object]] = {
    "mono-1c": SingleBankedFactory(
        latency=1, bypass_levels=1, name="1-cycle single-banked"),
    "mono-2c-full-bypass": SingleBankedFactory(
        latency=2, bypass_levels=2, name="2-cycle single-banked, full bypass"),
    "mono-2c-1-bypass": SingleBankedFactory(
        latency=2, bypass_levels=1, name="2-cycle single-banked, 1 bypass"),
    "banked-4x2r2w": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2),
    "rfc-non-bypass": RegisterFileCacheFactory(
        caching="non-bypass", fetch="prefetch-first-pair"),
    "rfc-ready": RegisterFileCacheFactory(
        caching="ready", fetch="prefetch-first-pair"),
    "rfc-always-demand": RegisterFileCacheFactory(
        caching="always", fetch="fetch-on-demand"),
    "rfc-ported": RegisterFileCacheFactory(
        upper_read_ports=4, upper_write_ports=2, lower_write_ports=4, buses=2),
}

#: Physical-register budgets swept per architecture (figure-1 style).
_SWEEP_REGISTER_BUDGETS = (128, 64)


@dataclass(frozen=True)
class SweepScenario:
    """One figure-style sweep through the experiment scheduler.

    All points share one (workload, frontend configuration), so the
    trace-replay engine records once and replays the whole matrix; the
    ``live`` variant simulates the identical matrix point by point, each
    with its own workload generation and a live frontend.  The primary
    metric is points/minute over the full sweep, scheduler included.
    """

    name: str
    profile: str
    instructions: int
    use_trace_replay: bool
    headline_sweep: bool = False

    best_of_repeats: ClassVar[bool] = False

    def points(self) -> List[SimulationPoint]:
        matrix: List[SimulationPoint] = []
        for budget in _SWEEP_REGISTER_BUDGETS:
            config = ProcessorConfig(
                max_instructions=self.instructions,
                num_int_physical=budget,
                num_fp_physical=budget,
            )
            for arch_key, factory in _SWEEP_ARCHITECTURES.items():
                matrix.append(
                    SimulationPoint(
                        benchmark=self.profile,
                        factory=factory,
                        architecture=f"{arch_key}/r{budget}",
                        config=config,
                    )
                )
        return matrix

    def run(self) -> Dict[str, object]:
        """Execute the sweep cold (fresh stores) and digest every result."""
        points = self.points()
        store = ResultStore()
        if self.use_trace_replay:
            summary = SweepEngine(store=store).execute(points)
        else:
            for point in points:
                stats = run_simulation_point(point)
                store.put(point.store_key(), stats, metadata=point.metadata())
            summary = {"executed": len(points)}
        return {
            "points": len(points),
            "summary": summary,
            "stats_digest": canonical_digest(
                store.get(point.store_key()).to_dict() for point in points
            ),
        }

    def metadata(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "instructions": self.instructions,
            "points": len(self.points()),
            "architectures": len(_SWEEP_ARCHITECTURES),
            "register_budgets": list(_SWEEP_REGISTER_BUDGETS),
            "use_trace_replay": self.use_trace_replay,
            "headline_sweep": self.headline_sweep,
        }

    def result(self, outcome: Dict[str, object], wall: float,
               repeats: int) -> ScenarioResult:
        return _points_result(self, "sweep", outcome, wall,
                              scheduler_summary=outcome["summary"])

    def describe(self) -> str:
        tag = " [sweep headline]" if self.headline_sweep else ""
        mode = "trace replay" if self.use_trace_replay else "live frontend"
        return (f"{self.name}: {len(self.points())} points x "
                f"{self.instructions} instructions via {mode}{tag}")


@dataclass(frozen=True)
class SampledSweepScenario:
    """Exact-vs-sampled replay of one figure-style architecture matrix.

    One decoded trace is recorded and every architecture replays it
    twice: once exactly (every instruction gets detailed timing) and
    once through the systematic-sampling engine (detailed windows at a
    fixed stride, functional warm-up between them, IPC as mean ± CI).
    The committed metric is ``per_point_speedup`` — exact seconds over
    sampled seconds, averaged across the matrix — the factor the
    sampling engine buys per sweep point; the accuracy side of the same
    trade is gated separately by ``repro.validate --sampled-accuracy``.
    """

    name: str
    profile: str
    instructions: int
    sample: str  # SamplingSpec text, "STRIDE:WINDOW[:WARMUP]"
    architectures: tuple  # keys into _SWEEP_ARCHITECTURES
    register_budget: int = 128

    best_of_repeats: ClassVar[bool] = False

    def run(self) -> Dict[str, object]:
        from repro.sampling import parse_sampling, sampled_simulate
        from repro.trace import record_trace, replay_simulate

        spec = parse_sampling(self.sample)
        config = ProcessorConfig(
            max_instructions=self.instructions,
            num_int_physical=self.register_budget,
            num_fp_physical=self.register_budget,
        )
        workload = SyntheticWorkload(get_profile(self.profile))
        trace = record_trace(
            self.profile,
            workload.instructions(int(self.instructions * _STREAM_SLACK)),
            config,
            {
                "kind": "bench-sampled-sweep",
                "benchmark": self.profile,
                "instructions": self.instructions,
            },
        )
        payloads = []
        exact_seconds = 0.0
        sampled_seconds = 0.0
        for arch_key in self.architectures:
            factory = _SWEEP_ARCHITECTURES[arch_key]
            started = time.perf_counter()
            exact = replay_simulate(trace, factory, config,
                                    benchmark_name=self.profile)
            exact_seconds += time.perf_counter() - started
            started = time.perf_counter()
            sampled = sampled_simulate(trace, factory, config, spec,
                                       benchmark_name=self.profile)
            sampled_seconds += time.perf_counter() - started
            payloads += [exact.to_dict(), sampled.to_dict()]
        points = len(self.architectures)
        return {
            "points": points,
            "summary": {
                "architectures": list(self.architectures),
                "exact_points": points,
                "sampled_points": points,
            },
            "stats_digest": canonical_digest(payloads),
            "exact_seconds": round(exact_seconds, 3),
            "sampled_seconds": round(sampled_seconds, 3),
            "per_point_speedup": round(
                exact_seconds / sampled_seconds, 2
            ) if sampled_seconds > 0 else 0.0,
            "sampling": spec.to_payload(),
        }

    def metadata(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "instructions": self.instructions,
            "sample": self.sample,
            "architectures": list(self.architectures),
            "register_budget": self.register_budget,
        }

    def result(self, outcome: Dict[str, object], wall: float,
               repeats: int) -> ScenarioResult:
        """``per_point_speedup`` (exact replay seconds over sampled
        seconds, summed across the matrix) lands in the metadata: a
        self-relative ratio that needs no calibration and is what the
        committed trajectory's ≥5× claim refers to."""
        keys = ("exact_seconds", "sampled_seconds", "per_point_speedup",
                "sampling", "summary")
        return _points_result(self, "sweep", outcome, wall,
                              **{key: outcome[key] for key in keys})

    def describe(self) -> str:
        return (f"{self.name}: {len(self.architectures)} architectures x "
                f"{self.instructions} instructions, exact vs sampled "
                f"({self.sample})")


def sampled_sweep_scenarios(quick: bool = False) -> List[SampledSweepScenario]:
    """Exact-vs-sampled comparison sweeps.

    The instruction budget stays at sampling scale even in ``quick``
    mode — systematic sampling needs a stream long enough to hold its
    stride plan — so quick mode shrinks the architecture matrix
    instead.  The spec (stride 3000, window 200, warm-up 200) keeps
    ~7% of instructions detailed, which is where the ≥5× per-point
    speedup the trajectory commits to comes from.
    """
    architectures = (
        ("mono-1c", "mono-2c-1-bypass", "rfc-ported")
        if quick else tuple(_SWEEP_ARCHITECTURES)
    )
    return [
        SampledSweepScenario(
            name="sweep/gcc/sampled-vs-exact",
            profile="gcc",
            instructions=24000,
            sample="3000:200:200",
            architectures=architectures,
        )
    ]


def sweep_scenarios(quick: bool = False) -> List[SweepScenario]:
    """The sweep matrices in both execution modes.

    Two benchmarks bracket the engine's win: ``fpppp`` (FP; the heaviest
    workload generation, so trace-once amortizes the most — the sweep
    headline) and ``gcc`` (INT; generation-light, the conservative end).
    Each also runs in ``live`` mode — the identical matrix through the
    pre-trace-engine execution model — so every report carries its own
    like-for-like ratio.
    """
    budget = 1500 if quick else 6000
    scenarios = []
    for profile, headline in (("fpppp", True), ("gcc", False)):
        for replay in (True, False):
            mode = "replay" if replay else "live"
            scenarios.append(
                SweepScenario(
                    name=f"sweep/{profile}/figure-matrix-{mode}",
                    profile=profile,
                    instructions=budget,
                    use_trace_replay=replay,
                    headline_sweep=headline and replay,
                )
            )
    return scenarios


# ----------------------------------------------------------------------
# service scenarios (submit -> complete through the HTTP sweep service)
# ----------------------------------------------------------------------


def serve_plan(plan: Dict[str, object], spent: Optional[List[float]] = None,
               instrument: Optional[Callable[[object], None]] = None,
               **app_kwargs) -> Dict[str, object]:
    """One cold pass of ``plan`` through the HTTP sweep service.

    Boots a :class:`~repro.service.server.ServiceUnderTest` on a fresh
    cache tree, calls ``instrument(app)`` if given, submits the plan,
    watches it to completion, digests the result and tears the service
    down.  ``wall_seconds`` runs from submission to the terminal state;
    ``spent_seconds`` is what timed calls appended to ``spent`` (from any
    thread) within that wall — start-up time lies outside it.
    """
    spent = [] if spent is None else spent
    tmp = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        service = ServiceUnderTest(cache_dir=tmp, **app_kwargs)
        try:
            if instrument is not None:
                instrument(service.app)
            started = time.perf_counter()
            del spent[:]
            job = service.client.submit(plan)
            final = service.client.watch(job["id"], interval=0.05, timeout=1800)
            wall = time.perf_counter() - started
            spent_seconds = sum(spent)
            if final.get("state") != "completed":
                raise SimulationError(
                    f"service bench job did not complete: {final.get('error')}"
                )
            result = service.client.result(job["id"])
        finally:
            service.stop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "points": int(final["counters"]["unique"]),
        "counters": final["counters"],
        "digest": canonical_digest([result["result"]]),
        "wall_seconds": wall,
        "spent_seconds": spent_seconds,
    }


@dataclass(frozen=True)
class ServiceScenario:
    """One figure plan through the sweep service's full HTTP path.

    Each run boots a cold in-process service (fresh stores, a free
    port), submits the plan with the client, polls it to completion and
    tears the service down — so the measured points/minute includes
    admission, queueing, scheduling and result assembly, everything a
    real client pays on top of the raw engine.
    """

    name: str
    figure: str
    instructions: int
    warmup_instructions: int
    benchmarks: tuple

    best_of_repeats: ClassVar[bool] = False

    def plan(self) -> Dict[str, object]:
        return {
            "figure": self.figure,
            "settings": {
                "instructions": self.instructions,
                "warmup_instructions": self.warmup_instructions,
                "benchmarks": list(self.benchmarks),
            },
        }

    def run(self) -> Dict[str, object]:
        served = serve_plan(self.plan())
        return {
            "points": served["points"],
            "summary": served["counters"],
            "stats_digest": served["digest"],
        }

    def metadata(self) -> Dict[str, object]:
        return {
            "figure": self.figure,
            "instructions": self.instructions,
            "warmup_instructions": self.warmup_instructions,
            "benchmarks": list(self.benchmarks),
            "transport": "http",
        }

    def result(self, outcome: Dict[str, object], wall: float,
               repeats: int) -> ScenarioResult:
        """A scenario that runs several internal passes (the overhead
        comparisons) reports the wall of the pass its metric describes
        via ``wall_seconds_override``."""
        wall = float(outcome.get("wall_seconds_override", wall))
        return _points_result(self, "service", outcome, wall,
                              job_counters=outcome["summary"])

    def describe(self) -> str:
        return (f"{self.name}: {self.figure} plan over "
                f"{'/'.join(self.benchmarks)} x {self.instructions} "
                f"instructions through the HTTP sweep service")


@dataclass(frozen=True)
class ResilienceOverheadScenario(ServiceScenario):
    """The chaos seams must cost nothing when no injector is installed.

    Runs the same figure plan through the service twice on cold cache
    trees: once with the seams disabled (the production default) and
    once with a zero-fault injector installed (every seam guard takes
    its slow path).  The scenario's throughput metric is the *disabled*
    pass — directly comparable to ``service_throughput`` numbers such
    as BENCH_6's.  Both passes must produce byte-identical results; a
    divergence fails the run outright.  The instrumented pass times
    every seam call, and its wall over the same wall without those
    calls above :data:`IN_PASS_OVERHEAD_BOUND` fails the scenario.
    Host speed cancels out of that in-pass ratio; the
    instrumented/disabled wall ratio of two separate passes moves with
    the host, so it is reported, not gated.
    """

    def _one_pass(self, instrumented: bool) -> Dict[str, object]:
        from repro.chaos import seams
        from repro.chaos.faults import FaultInjector

        # Seconds spent in seam calls, from any thread.  The injector is
        # in place before the app is built, so start-up seam calls go
        # through it too.
        seam_seconds: List[float] = []
        if instrumented:
            injector = FaultInjector([])
            injector.fire = _timed(injector.fire, seam_seconds)
            seams.install(injector)
        try:
            served = serve_plan(self.plan(), seam_seconds)
        finally:
            if instrumented:
                seams.uninstall()
        served["seam_seconds"] = served.pop("spent_seconds")
        return served

    def run(self) -> Dict[str, object]:
        from repro.chaos import seams

        if seams.installed():
            raise SimulationError(
                "resilience bench needs the chaos seams disabled at entry"
            )
        disabled = self._one_pass(instrumented=False)
        instrumented = self._one_pass(instrumented=True)
        if disabled["digest"] != instrumented["digest"]:
            raise SimulationError(
                "instrumented (no-fault) service pass diverged from the "
                "plain pass — the seams are not transparent"
            )
        overhead = _gated_in_pass_overhead(
            [(instrumented["wall_seconds"], instrumented["seam_seconds"])],
            "seam", "the seam calls",
        )
        ratio = (
            instrumented["wall_seconds"] / disabled["wall_seconds"]
            if disabled["wall_seconds"] else 0.0
        )
        return {
            "points": disabled["points"],
            "summary": {
                "disabled_wall_seconds": round(disabled["wall_seconds"], 3),
                "instrumented_wall_seconds": round(
                    instrumented["wall_seconds"], 3
                ),
                "instrumented_over_disabled": round(ratio, 3),
                "seam_overhead": round(overhead, 4),
                "threshold": IN_PASS_OVERHEAD_BOUND,
            },
            "stats_digest": disabled["digest"],
        }

    def metadata(self) -> Dict[str, object]:
        return {**super().metadata(),
                "passes": ["seams-disabled", "noop-injector"]}


#: Upper bound on an instrumented service pass's wall over the same wall
#: without the instrumented calls, for both overhead scenarios.
IN_PASS_OVERHEAD_BOUND = 1.05


def _gated_in_pass_overhead(passes, what: str, calls: str) -> float:
    """The median in-pass overhead of ``(wall, spent)`` passes.

    Each pass's overhead is its wall over that wall less the ``spent``
    seconds of ``calls``; a median above :data:`IN_PASS_OVERHEAD_BOUND`
    raises :class:`SimulationError`.
    """
    import statistics

    overheads = [wall / (wall - spent) if wall > spent else float("inf")
                 for wall, spent in passes]
    overhead = statistics.median(overheads)
    if overhead > IN_PASS_OVERHEAD_BOUND:
        raise SimulationError(
            f"{what} overhead {overhead:.3f}x (median over {len(overheads)} "
            f"instrumented passes of the wall over the wall without "
            f"{calls}) exceeds the {IN_PASS_OVERHEAD_BOUND}x bound"
        )
    return overhead


def _timed(call, spent: List[float]):
    """``call``, appending the seconds each invocation takes to ``spent``."""

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - started)

    return timed


@dataclass(frozen=True)
class ObsOverheadScenario(ServiceScenario):
    """Telemetry must be nearly free: spans + histograms + the event log.

    Runs the same figure plan through the service on cold cache trees
    with full telemetry (the production default — metrics registry,
    span event log, SSE bus) and with a bare registry (no event log,
    no bus), alternating for ``pairs`` rounds; every pass must produce
    byte-identical results.  The two differ only in what
    ``Telemetry.emit`` hands the event log and the bus, so each full
    pass times that work, and a median full pass wall over the same
    wall without it above :data:`IN_PASS_OVERHEAD_BOUND` fails the
    scenario.
    Host speed cancels out of that in-pass ratio; the walls of
    separate passes move ~8% on a shared host, so their best-of ratio
    is reported, not gated.  The throughput metric is the best
    *full-telemetry* wall — that is what production pays.
    """

    #: Alternating bare/full rounds.
    pairs: int = 3

    def _one_pass(self, full_telemetry: bool) -> Dict[str, object]:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.telemetry import Telemetry

        # Seconds spent in the event log and the bus, from any thread.
        sink_seconds: List[float] = []

        def time_sinks(app) -> None:
            for sink, method in ((app.telemetry.log, "append"),
                                 (app.telemetry.bus, "publish")):
                setattr(sink, method, _timed(getattr(sink, method), sink_seconds))

        if full_telemetry:  # the app builds log + bus itself
            served = serve_plan(self.plan(), sink_seconds, instrument=time_sinks)
        else:
            served = serve_plan(self.plan(),
                                telemetry=Telemetry(registry=MetricsRegistry()))
        served["sink_seconds"] = served.pop("spent_seconds")
        return served

    def run(self) -> Dict[str, object]:
        bare_walls, full_walls, timed = [], [], []
        full = None
        digest = None
        for _ in range(max(1, self.pairs)):
            bare = self._one_pass(full_telemetry=False)
            full = self._one_pass(full_telemetry=True)
            if digest is None:
                digest = bare["digest"]
            if bare["digest"] != digest or full["digest"] != digest:
                raise SimulationError(
                    "full-telemetry service pass diverged from the bare-"
                    "registry pass — observability is not transparent"
                )
            bare_walls.append(bare["wall_seconds"])
            full_walls.append(full["wall_seconds"])
            timed.append((full["wall_seconds"], full["sink_seconds"]))
        overhead = _gated_in_pass_overhead(
            timed, "telemetry", "the event log and bus"
        )
        best_bare, best_full = min(bare_walls), min(full_walls)
        return {
            "points": full["points"],
            "wall_seconds_override": best_full,
            "summary": {
                "bare_wall_seconds": round(best_bare, 3),
                "full_wall_seconds": round(best_full, 3),
                "full_over_bare": round(best_full / best_bare if best_bare else 0.0, 3),
                "telemetry_overhead": round(overhead, 4),
                "pairs": max(1, self.pairs),
                "threshold": IN_PASS_OVERHEAD_BOUND,
            },
            "stats_digest": digest,
        }

    def metadata(self) -> Dict[str, object]:
        return {**super().metadata(),
                "passes": ["bare-registry", "full-telemetry"]}


def service_scenarios(quick: bool = False) -> List[ServiceScenario]:
    """The service-path scenarios (quick-eligible, so CI gates them too)."""
    return [
        ServiceScenario(
            name="service_throughput/figure6",
            figure="figure6",
            instructions=1500 if quick else 6000,
            warmup_instructions=300 if quick else 2000,
            benchmarks=("gcc", "swim"),
        ),
        ResilienceOverheadScenario(
            name="resilience_overhead/figure6",
            figure="figure6",
            instructions=1500 if quick else 6000,
            warmup_instructions=300 if quick else 2000,
            benchmarks=("gcc",),
        ),
        # Deliberately NOT shrunk under --quick: on a sub-second job the
        # client's 50 ms watch-poll quantisation swamps the ratio being
        # measured; the full-size plan keeps the signal above the noise.
        ObsOverheadScenario(
            name="obs_overhead/figure6",
            figure="figure6",
            instructions=6000,
            warmup_instructions=2000,
            benchmarks=("gcc",),
        ),
    ]


# ----------------------------------------------------------------------
# component microbenchmarks
# ----------------------------------------------------------------------


def component_scenarios(quick: bool = False) -> List[ComponentScenario]:
    """One scenario per component kernel (the same in ``quick`` mode)."""
    return [
        ComponentScenario(name=f"component/{name}", kernel=kernel)
        for name, kernel in KERNELS.items()
    ]


def scenario_matrix(quick: bool = False) -> List[Scenario]:
    """Every scenario of the benchmark matrix, in report order."""
    return [
        *simulation_scenarios(quick),
        *sweep_scenarios(quick),
        *sampled_sweep_scenarios(quick),
        *service_scenarios(quick),
        *component_scenarios(quick),
    ]


def with_budget(scenario: SimulationScenario, instructions: int) -> SimulationScenario:
    """Copy of ``scenario`` with a different instruction budget."""
    return replace(scenario, instructions=instructions)
