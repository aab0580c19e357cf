"""The fixed benchmark matrix executed by :mod:`repro.bench`.

Three kinds of scenarios:

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
* **service scenarios** — a figure plan pushed through the sweep
  service's full HTTP path (submit via :class:`ServiceClient`, execute
  on the service's :class:`~repro.experiments.scheduler.SweepEngine`,
  poll to completion), measured in points/minute — the perf gate's view
  of the :mod:`repro.service` subsystem.
* **store scenarios** — the sharded segment-log store hammered
  directly (writes, re-reads, deletes, compaction, a cold reopen),
  measured in store operations/second — the perf gate's view of the
  :mod:`repro.storage` subsystem every cache hit rides on.
* **component scenarios** — microbenchmarks of the simulator's building
  blocks, reused from the repository's ``benchmarks/`` pytest-benchmark
  suite via a small timing shim, so the same kernels back both harnesses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

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
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

#: Extra stream slack so the pipeline never drains before the commit cap.
_STREAM_SLACK = 1.5


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


@dataclass(frozen=True)
class ComponentScenario:
    """One microbenchmark kernel borrowed from ``benchmarks/``."""

    name: str
    source: str  # qualified name of the reused benchmark function
    runner: Callable[[], int] = field(compare=False)

    def run(self) -> int:
        """Execute the kernel once; returns its operation count."""
        return self.runner()


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
        digest = hashlib.sha256()
        for point in points:
            stats = store.get(point.store_key())
            payload = json.dumps(stats.to_dict(), sort_keys=True,
                                 separators=(",", ":"), default=str)
            digest.update(payload.encode("utf-8"))
        return {
            "points": len(points),
            "summary": summary,
            "stats_digest": digest.hexdigest(),
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

    def run(self) -> Dict[str, object]:
        import time

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
        digest = hashlib.sha256()
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
            for stats in (exact, sampled):
                payload = json.dumps(stats.to_dict(), sort_keys=True,
                                     separators=(",", ":"), default=str)
                digest.update(payload.encode("utf-8"))
        points = len(self.architectures)
        return {
            "points": points,
            "summary": {
                "architectures": list(self.architectures),
                "exact_points": points,
                "sampled_points": points,
            },
            "stats_digest": digest.hexdigest(),
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

    def run(self) -> Dict[str, object]:
        import shutil
        import tempfile
        import threading

        from repro.errors import SimulationError
        from repro.service.app import ServiceApp
        from repro.service.client import ServiceClient
        from repro.service.server import build_server

        tmp = tempfile.mkdtemp(prefix="repro-bench-service-")
        app = ServiceApp(cache_dir=tmp, jobs=1, job_concurrency=1)
        server = build_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        app.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}"
            )
            job = client.submit({
                "figure": self.figure,
                "settings": {
                    "instructions": self.instructions,
                    "warmup_instructions": self.warmup_instructions,
                    "benchmarks": list(self.benchmarks),
                },
            })
            final = client.watch(job["id"], interval=0.05, timeout=1800)
            if final.get("state") != "completed":
                raise SimulationError(
                    f"service bench job did not complete: {final.get('error')}"
                )
            result = client.result(job["id"])
            digest = hashlib.sha256(
                json.dumps(result["result"], sort_keys=True,
                           separators=(",", ":"), default=str).encode("utf-8")
            ).hexdigest()
            return {
                "points": int(final["counters"]["unique"]),
                "summary": final["counters"],
                "stats_digest": digest,
            }
        finally:
            server.shutdown()
            server.server_close()
            app.stop()
            shutil.rmtree(tmp, ignore_errors=True)

    def metadata(self) -> Dict[str, object]:
        return {
            "figure": self.figure,
            "instructions": self.instructions,
            "warmup_instructions": self.warmup_instructions,
            "benchmarks": list(self.benchmarks),
            "transport": "http",
        }


@dataclass(frozen=True)
class ResilienceOverheadScenario:
    """The chaos seams must cost nothing when no injector is installed.

    Runs the same figure plan through the service twice on cold cache
    trees: once with the seams disabled (the production default) and
    once with a zero-fault injector installed (every seam guard takes
    its slow path).  The scenario's throughput metric is the *disabled*
    pass — directly comparable to ``service_throughput`` numbers such
    as BENCH_6's — while the instrumented/disabled wall ratio lands in
    the metadata.  Both passes must produce byte-identical results; a
    divergence fails the run outright.
    """

    name: str
    figure: str
    instructions: int
    warmup_instructions: int
    benchmarks: tuple

    def _one_pass(self) -> Dict[str, object]:
        import shutil
        import tempfile
        import threading
        import time as time_mod

        from repro.errors import SimulationError
        from repro.service.app import ServiceApp
        from repro.service.client import ServiceClient
        from repro.service.server import build_server

        tmp = tempfile.mkdtemp(prefix="repro-bench-resilience-")
        app = ServiceApp(cache_dir=tmp, jobs=1, job_concurrency=1)
        server = build_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        app.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}"
            )
            started = time_mod.perf_counter()
            job = client.submit({
                "figure": self.figure,
                "settings": {
                    "instructions": self.instructions,
                    "warmup_instructions": self.warmup_instructions,
                    "benchmarks": list(self.benchmarks),
                },
            })
            final = client.watch(job["id"], interval=0.05, timeout=1800)
            wall = time_mod.perf_counter() - started
            if final.get("state") != "completed":
                raise SimulationError(
                    f"resilience bench job did not complete: "
                    f"{final.get('error')}"
                )
            result = client.result(job["id"])
            digest = hashlib.sha256(
                json.dumps(result["result"], sort_keys=True,
                           separators=(",", ":"), default=str).encode("utf-8")
            ).hexdigest()
            return {
                "points": int(final["counters"]["unique"]),
                "wall_seconds": wall,
                "digest": digest,
            }
        finally:
            server.shutdown()
            server.server_close()
            app.stop()
            shutil.rmtree(tmp, ignore_errors=True)

    def run(self) -> Dict[str, object]:
        from repro.chaos import seams
        from repro.chaos.faults import FaultInjector
        from repro.errors import SimulationError

        if seams.installed():
            raise SimulationError(
                "resilience bench needs the chaos seams disabled at entry"
            )
        disabled = self._one_pass()
        seams.install(FaultInjector([]))
        try:
            instrumented = self._one_pass()
        finally:
            seams.uninstall()
        if disabled["digest"] != instrumented["digest"]:
            raise SimulationError(
                "instrumented (no-fault) service pass diverged from the "
                "plain pass — the seams are not transparent"
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
            },
            "stats_digest": disabled["digest"],
        }

    def metadata(self) -> Dict[str, object]:
        return {
            "figure": self.figure,
            "instructions": self.instructions,
            "warmup_instructions": self.warmup_instructions,
            "benchmarks": list(self.benchmarks),
            "transport": "http",
            "passes": ["seams-disabled", "noop-injector"],
        }


@dataclass(frozen=True)
class ObsOverheadScenario:
    """Telemetry must be nearly free: spans + histograms + the event log.

    Runs the same figure plan through the service on cold cache trees
    with full telemetry (the production default — metrics registry,
    span event log, SSE bus) and with a bare registry (no event log,
    no bus), the cheapest configuration the app supports.  The passes
    alternate bare/full for ``pairs`` rounds and the best wall per
    side is compared — the interleaved best-of estimator from
    ``docs/benchmarking.md``, because a single ~1 s service wall
    carries enough scheduler and watch-poll noise to swamp a 5%
    ratio.  The throughput metric is the *full-telemetry* wall — that
    is what production pays — and the full/bare ratio lands in the
    summary next to the ``threshold`` it is expected to stay under
    (1.05×).  Every pass must produce byte-identical results.
    """

    name: str
    figure: str
    instructions: int
    warmup_instructions: int
    benchmarks: tuple

    #: Expected upper bound on the full/bare wall ratio.
    threshold: float = 1.05
    #: Alternating bare/full rounds; best wall per side is compared.
    pairs: int = 3

    def _one_pass(self, full_telemetry: bool) -> Dict[str, object]:
        import shutil
        import tempfile
        import threading
        import time as time_mod

        from repro.errors import SimulationError
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.telemetry import Telemetry
        from repro.service.app import ServiceApp
        from repro.service.client import ServiceClient
        from repro.service.server import build_server

        tmp = tempfile.mkdtemp(prefix="repro-bench-obs-")
        telemetry = (
            None if full_telemetry  # the app builds log + bus itself
            else Telemetry(registry=MetricsRegistry())
        )
        app = ServiceApp(cache_dir=tmp, jobs=1, job_concurrency=1,
                         telemetry=telemetry)
        server = build_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        app.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}"
            )
            started = time_mod.perf_counter()
            job = client.submit({
                "figure": self.figure,
                "settings": {
                    "instructions": self.instructions,
                    "warmup_instructions": self.warmup_instructions,
                    "benchmarks": list(self.benchmarks),
                },
            })
            final = client.watch(job["id"], interval=0.05, timeout=1800)
            wall = time_mod.perf_counter() - started
            if final.get("state") != "completed":
                raise SimulationError(
                    f"obs bench job did not complete: {final.get('error')}"
                )
            result = client.result(job["id"])
            digest = hashlib.sha256(
                json.dumps(result["result"], sort_keys=True,
                           separators=(",", ":"), default=str).encode("utf-8")
            ).hexdigest()
            return {
                "points": int(final["counters"]["unique"]),
                "wall_seconds": wall,
                "digest": digest,
            }
        finally:
            server.shutdown()
            server.server_close()
            app.stop()
            shutil.rmtree(tmp, ignore_errors=True)

    def run(self) -> Dict[str, object]:
        from repro.errors import SimulationError

        bare_walls, full_walls = [], []
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
        best_bare, best_full = min(bare_walls), min(full_walls)
        ratio = best_full / best_bare if best_bare else 0.0
        return {
            "points": full["points"],
            "wall_seconds_override": best_full,
            "summary": {
                "bare_wall_seconds": round(best_bare, 3),
                "full_wall_seconds": round(best_full, 3),
                "full_over_bare": round(ratio, 3),
                "pairs": max(1, self.pairs),
                "threshold": self.threshold,
                "within_threshold": ratio <= self.threshold,
            },
            "stats_digest": digest,
        }

    def metadata(self) -> Dict[str, object]:
        return {
            "figure": self.figure,
            "instructions": self.instructions,
            "warmup_instructions": self.warmup_instructions,
            "benchmarks": list(self.benchmarks),
            "transport": "http",
            "passes": ["bare-registry", "full-telemetry"],
        }


def service_scenarios(quick: bool = False) -> List[object]:
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
# store scenarios (sharded segment-log store, hammered directly)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoreScenario:
    """One write/read/compact workout of the sharded segment-log store.

    The run writes ``entries`` deterministic values, re-reads the whole
    key space ``read_passes`` times, overwrites half the keys (creating
    dead bytes), deletes a quarter, compacts, and finally reopens the
    tree cold — the index rebuild every replica pays at startup.  The
    metric is store operations/second over the whole sequence; the
    digest hashes every byte read, so a payload corruption anywhere
    fails the determinism gate.
    """

    name: str
    entries: int
    value_bytes: int
    read_passes: int = 2

    def _key(self, index: int) -> str:
        return hashlib.sha256(f"bench-store-{index}".encode()).hexdigest()

    def _value(self, index: int, generation: int) -> bytes:
        seed = f"{self.name}:{index}:{generation}".encode()
        block = hashlib.sha256(seed).digest()
        repeated = block * (self.value_bytes // len(block) + 1)
        return repeated[: self.value_bytes]

    def run(self) -> Dict[str, object]:
        import shutil
        import tempfile

        from repro.storage.sharded import ShardedStore

        tmp = tempfile.mkdtemp(prefix="repro-bench-store-")
        digest = hashlib.sha256()
        operations = 0
        try:
            store = ShardedStore(tmp, num_shards=16)
            for index in range(self.entries):
                store.put(self._key(index), self._value(index, 0))
            operations += self.entries
            for _ in range(self.read_passes):
                for index in range(self.entries):
                    digest.update(store.get(self._key(index)) or b"")
                operations += self.entries
            for index in range(0, self.entries, 2):  # dead bytes to compact
                store.put(self._key(index), self._value(index, 1))
                operations += 1
            for index in range(0, self.entries, 4):
                store.delete(self._key(index))
                operations += 1
            store.compact()
            operations += 1
            stats = store.stats()  # counters of the instance that did the work
            reopened = ShardedStore(tmp, num_shards=16)  # cold index rebuild
            for index in range(self.entries):
                digest.update(reopened.get(self._key(index)) or b"")
            operations += self.entries
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return {
            "operations": operations,
            "stats_digest": digest.hexdigest(),
            "store_stats": stats,
        }

    def metadata(self) -> Dict[str, object]:
        return {
            "entries": self.entries,
            "value_bytes": self.value_bytes,
            "read_passes": self.read_passes,
            "num_shards": 16,
        }


def store_scenarios(quick: bool = False) -> List[StoreScenario]:
    """The store-throughput scenario (quick-eligible, so CI gates it)."""
    return [
        StoreScenario(
            name="store_throughput/sharded-segment-log",
            entries=400 if quick else 2000,
            value_bytes=2048 if quick else 8192,
        )
    ]


# ----------------------------------------------------------------------
# component microbenchmarks, reused from benchmarks/bench_components.py
# ----------------------------------------------------------------------


class _OnceShim:
    """Minimal stand-in for the pytest-benchmark ``benchmark`` fixture.

    The functions in ``benchmarks/bench_components.py`` call
    ``benchmark(fn)`` and assert on the returned value; this shim runs
    the kernel exactly once, hands the result back to that assertion and
    records it, so the bench runner can do its own repeat/timing policy
    around the whole call.
    """

    def __init__(self) -> None:
        self.result: Optional[int] = None

    def __call__(self, fn: Callable[[], int]) -> int:
        self.result = fn()
        return self.result


def _load_component_benchmarks() -> Optional[object]:
    """Import ``benchmarks.bench_components`` when the repo root allows it.

    The ``benchmarks/`` tree sits next to ``src/`` rather than inside the
    package, so it is importable when running from a repository checkout
    but not from an installed wheel; component scenarios simply drop out
    in the latter case.
    """
    try:
        from benchmarks import bench_components
    except ImportError:
        return None
    return bench_components


def component_scenarios(quick: bool = False) -> List[ComponentScenario]:
    """Microbenchmark scenarios (empty when ``benchmarks/`` is absent)."""
    module = _load_component_benchmarks()
    if module is None:
        return []
    names = [
        "bench_workload_generation",
        "bench_gshare_prediction_throughput",
        "bench_dcache_accesses",
        "bench_pseudo_lru_operations",
        "bench_register_file_cache_writeback_path",
    ]
    scenarios: List[ComponentScenario] = []
    for name in names:
        fn = getattr(module, name, None)
        if fn is None:
            continue
        short = name.removeprefix("bench_")

        def runner(fn=fn) -> int:
            shim = _OnceShim()
            fn(shim)
            return shim.result if shim.result is not None else 0

        scenarios.append(
            ComponentScenario(
                name=f"component/{short}",
                source=f"benchmarks.bench_components.{name}",
                runner=runner,
            )
        )
    return scenarios


def scenario_overview(quick: bool = False) -> List[str]:
    """Human-readable one-liners for ``python -m repro.bench --list``."""
    lines = []
    for sim in simulation_scenarios(quick):
        tag = " [headline]" if sim.headline else ""
        lines.append(
            f"{sim.name}: {sim.instructions} instructions on "
            f"{sim.architecture}{tag}"
        )
    for sweep in sweep_scenarios(quick):
        tag = " [sweep headline]" if sweep.headline_sweep else ""
        mode = "trace replay" if sweep.use_trace_replay else "live frontend"
        lines.append(
            f"{sweep.name}: {len(sweep.points())} points x "
            f"{sweep.instructions} instructions via {mode}{tag}"
        )
    for sampled in sampled_sweep_scenarios(quick):
        lines.append(
            f"{sampled.name}: {len(sampled.architectures)} architectures x "
            f"{sampled.instructions} instructions, exact vs sampled "
            f"({sampled.sample})"
        )
    for service in service_scenarios(quick):
        lines.append(
            f"{service.name}: {service.figure} plan over "
            f"{'/'.join(service.benchmarks)} x {service.instructions} "
            f"instructions through the HTTP sweep service"
        )
    for store in store_scenarios(quick):
        lines.append(
            f"{store.name}: {store.entries} x {store.value_bytes}B entries "
            f"through the sharded segment-log store"
        )
    for comp in component_scenarios(quick):
        lines.append(f"{comp.name}: reuses {comp.source}")
    return lines


def with_budget(scenario: SimulationScenario, instructions: int) -> SimulationScenario:
    """Copy of ``scenario`` with a different instruction budget."""
    return replace(scenario, instructions=instructions)
