"""The two self-relative overhead gates of ``python -m repro.bench``.

Each gate pushes one figure plan through the sweep service in process,
on cold cache trees, and reads an overhead measured *inside* one pass:
an instrumented pass times the calls a plain pass does not make, and
its wall over that wall without those calls must stay within
:data:`IN_PASS_OVERHEAD_BOUND`.  Host speed cancels out of that in-pass
ratio.  The wall ratio of two separate passes moves with the host
(~8% from pass to pass on a shared 2-CPU container), so it is reported,
not gated.

* :class:`ResilienceOverheadGate` — the chaos seams with no injector
  (the production default) against a zero-fault injector, whose
  ``fire`` calls the instrumented pass times;
* :class:`ObsOverheadGate` — a bare metrics registry against full
  telemetry, whose event log and bus calls the instrumented passes
  time.

Every pass must produce byte-identical results; a divergence fails the
gate like an overhead above the bound, with :class:`SimulationError`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.service.server import ServiceUnderTest

#: Upper bound on an instrumented service pass's wall over the same wall
#: without the instrumented calls, for both gates.
IN_PASS_OVERHEAD_BOUND = 1.05


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
    canonical = json.dumps(result["result"], sort_keys=True, separators=(",", ":"))
    return {
        "points": int(final["counters"]["unique"]),
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "wall_seconds": wall,
        "spent_seconds": spent_seconds,
    }


def _gated_in_pass_overhead(passes, what: str, calls: str) -> float:
    """The median in-pass overhead of ``(wall, spent)`` passes.

    Each pass's overhead is its wall over that wall less the ``spent``
    seconds of ``calls``; a median above :data:`IN_PASS_OVERHEAD_BOUND`
    raises :class:`SimulationError`.
    """
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
class OverheadGate:
    """One figure plan, run through the service by a gate's ``run()``."""

    name: str
    figure: str
    instructions: int
    warmup_instructions: int
    benchmarks: tuple

    def plan(self) -> Dict[str, object]:
        return {
            "figure": self.figure,
            "settings": {
                "instructions": self.instructions,
                "warmup_instructions": self.warmup_instructions,
                "benchmarks": list(self.benchmarks),
            },
        }


@dataclass(frozen=True)
class ResilienceOverheadGate(OverheadGate):
    """The chaos seams must cost nothing when no injector is installed.

    Runs the plan once with the seams disabled and once with a
    zero-fault injector installed before the service is built (every
    seam guard takes its slow path, and every ``fire`` call is timed).
    """

    def _one_pass(self, instrumented: bool) -> Dict[str, object]:
        from repro.chaos import seams
        from repro.chaos.faults import FaultInjector

        # Seconds spent in seam calls, from any thread.
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
                "resilience gate needs the chaos seams disabled at entry"
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
            "overhead": round(overhead, 4),
            "bound": IN_PASS_OVERHEAD_BOUND,
            "points": disabled["points"],
            "disabled_wall_seconds": round(disabled["wall_seconds"], 3),
            "instrumented_wall_seconds": round(instrumented["wall_seconds"], 3),
            "instrumented_over_disabled": round(ratio, 3),
        }


@dataclass(frozen=True)
class ObsOverheadGate(OverheadGate):
    """Telemetry must be nearly free: spans, histograms and the event log.

    Alternates a bare-registry pass (no event log, no bus) and a
    full-telemetry pass (the production default) for ``pairs`` rounds.
    The two differ only in what ``Telemetry.emit`` hands the event log
    and the bus, so each full pass times that work, and the median of
    the full passes' in-pass overheads is gated.
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
            "overhead": round(overhead, 4),
            "bound": IN_PASS_OVERHEAD_BOUND,
            "points": full["points"],
            "pairs": max(1, self.pairs),
            "bare_wall_seconds": round(best_bare, 3),
            "full_wall_seconds": round(best_full, 3),
            "full_over_bare": round(best_full / best_bare if best_bare else 0.0, 3),
        }


def overhead_gates() -> List[OverheadGate]:
    """The gates ``python -m repro.bench`` runs, in order.

    The resilience plan is small.  The obs plan is not: on a sub-second
    job the client's 50 ms watch-poll quantisation swamps the ratio.
    """
    return [
        ObsOverheadGate(name="obs_overhead", figure="figure6", instructions=6000,
                        warmup_instructions=2000, benchmarks=("gcc",)),
        ResilienceOverheadGate(name="resilience_overhead", figure="figure6",
                               instructions=1500, warmup_instructions=300,
                               benchmarks=("gcc",)),
    ]
