"""The three workloads: set-up, measured units, output checks, metrics.

Each workload runs in this one process with a single caller, and does
a fixed number of *units* of work (see :mod:`benchlib.plans`):

* ``point-live`` — a unit is one rotation of ``simulate`` calls;
* ``sweep-cold`` — a unit is one 32-point sweep on a fresh cache dir;
* ``service-warm`` — a unit is one block of ten jobs sent by a
  closed-loop client to a live HTTP service.

Between operations each workload runs the host-speed kernel of
:mod:`benchlib.hostspeed`, outside every timed interval, and its
latencies and rates are scaled by the run's slowdown (``point-live``
and ``sweep-cold`` scale each call or point by the kernel runs around
it).  Untraced runs report the
end-to-end metrics.  Traced runs trace every odd unit and report the
per-layer metrics of those, plus the ratio of traced to untraced unit
time (``trace_overhead``).
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from benchlib import plans
from benchlib.checks import DigestBook, OutputMismatch, canonical
from benchlib.hostspeed import HostSpeed
from benchlib.stats import FAILED, OK, REFUSED, OpLog
from benchlib.tracer import REGFILE_FIELDS, STATS_FIELDS, Tracer
from repro.experiments.scheduler import SweepEngine
from repro.experiments.store import ResultStore
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import build_server
from repro.trace import TraceStore
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

#: Longest a service job may take before it counts as failed.
JOB_TIMEOUT_S = 60.0
#: Fixed pause between two status polls of one job.
POLL_INTERVAL_S = 0.005
#: Latency charged to a failed simulate call or sweep.  None can fail
#: short of a crash, which ends the run instead.
UNIT_TIMEOUT_S = 180.0

#: End-to-end metrics that are host times (scaled down by the slowdown)
#: and host rates (scaled up by it).  ``service-warm``'s ``setup_s`` stays
#: unscaled: its set-up is other work than the measured units, whose kind
#: the kernel mimics.  The set-ups of the other two workloads are
#: simulation like their units and are scaled one by one.
_TIMES = ("latency_p50_ms", "latency_tail_ms")
_RATES = ("sim_kips", "points_per_min")


@dataclass
class Context:
    """What one workload run needs besides its seed."""

    seed: int
    seconds: float
    scratch_dir: str
    digests: DigestBook
    tracer: Optional[Tracer] = None
    host: HostSpeed = field(default_factory=HostSpeed)

    @contextlib.contextmanager
    def traced(self, on: bool) -> Iterator[None]:
        """Trace the block when ``on`` and this is a traced run."""
        if self.tracer is None:
            yield
        else:
            with self.tracer.enabled(on):
                yield


@dataclass
class Report:
    """The outcome of one workload run."""

    attempted: int
    failed: int
    #: End-to-end metrics (untraced) or per-layer metrics (traced).
    metrics: Dict[str, float]
    details: dict = field(default_factory=dict)


class _Units:
    """Yields ``(index, traced)`` per unit and keeps the units' times.

    Stops early, after at least one unit (two when tracing), once
    ``seconds`` have passed; every odd unit is traced in a traced run.
    """

    def __init__(self, context: Context, count: int) -> None:
        self.context = context
        self.count = count
        self.seconds: Dict[bool, List[float]] = {False: [], True: []}

    def __iter__(self) -> Iterator[Tuple[int, bool]]:
        tracing = self.context.tracer is not None
        minimum = 2 if tracing else 1
        started = time.perf_counter()
        for index in range(self.count):
            if (index >= minimum
                    and time.perf_counter() - started >= self.context.seconds):
                return
            yield index, tracing and index % 2 == 1

    def add(self, traced: bool, seconds: float) -> None:
        self.seconds[traced].append(seconds)

    def done(self) -> int:
        return len(self.seconds[False]) + len(self.seconds[True])

    def trace_overhead(self) -> float:
        return (statistics.fmean(self.seconds[True])
                / statistics.fmean(self.seconds[False]))


def _setup_repeats(context: Context) -> int:
    return 1 if context.tracer is not None else plans.SETUP_REPEATS


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a traced run; absent layers read zero."""
    busy, calls, sums = tracer.busy, tracer.calls, tracer.sums
    metrics = {
        "workloads.generate_s": busy["workloads.generate"],
        "pipeline.simulate_s": busy["pipeline.simulate"],
        "pipeline.simulate_calls": calls["pipeline.simulate"],
        "pipeline.host_us_per_sim_cycle": _ratio(
            1e6 * busy["pipeline.simulate"], sums["pipeline.sim_cycles"]),
    }
    for key in list(STATS_FIELDS) + list(REGFILE_FIELDS):
        metrics[key] = sums[key]
    metrics.update({
        "trace.record_s": busy["trace.record"],
        "trace.record_calls": calls["trace.record"],
        "trace.replay_s": busy["trace.replay"],
        "trace.replay_calls": calls["trace.replay"],
        "trace.store_put_s": busy["trace.store_put"],
        "trace.store_get_s": busy["trace.store_get"],
        "trace.store_hit_ratio": _ratio(sums["trace.store_hits"],
                                        calls["trace.store_get"]),
        "sampling.simulate_s": busy["sampling.simulate"],
        "sampling.calls": calls["sampling.simulate"],
        "sampling.detailed_fraction": _ratio(sums["sampling.detailed"],
                                             sums["sampling.total"]),
        "experiments.execute_s": busy["experiments.execute"],
        "experiments.execute_self_s": tracer.self_time["experiments.execute"],
        "experiments.executed": sums["experiments.executed"],
        "experiments.cache_hit_ratio": _ratio(sums["experiments.cached"],
                                              sums["experiments.unique"]),
        "storage.result_get_s": busy["storage.result_get"],
        "storage.result_get_calls": calls["storage.result_get"],
        "storage.result_put_s": busy["storage.result_put"],
        "storage.result_put_calls": calls["storage.result_put"],
        "service.http_submit_ms": 0.0,
        "service.http_status_ms": 0.0,
        "service.http_result_ms": 0.0,
        "service.polls_per_job": 0.0,
        "service.app_submit_s": busy["service.app_submit"],
        "service.job_save_s": busy["service.job_save"],
        "service.job_save_calls": calls["service.job_save"],
        "service.lease_s": busy["service.lease"],
        "service.fleet_poll_s": busy["service.fleet_poll"],
        "obs.event_append_s": busy["obs.event_append"],
        "obs.events_per_job": 0.0,
    })
    metrics.update(extra)
    return metrics


def _report(context: Context, ops: OpLog, units: _Units, setup_times: List[float],
            sim_kips: float, points_per_min: float, details: dict,
            layer_extra: Optional[Dict[str, float]] = None,
            rescaled: bool = False) -> Report:
    """``rescaled``: the figures were scaled call by call already."""
    tail = ops.tail()
    slowdown = context.host.slowdown()
    details.update({
        "units": units.done(),
        "tail": tail.describe(),
        "fail_frac": ops.fail_frac,
        "outputs_checked": context.digests.checked,
        "host_slowdown": slowdown,
    })
    if context.tracer is not None:
        extra = {"trace_overhead": units.trace_overhead()}
        extra.update(layer_extra or {})
        metrics = layer_metrics(context.tracer, extra)
    else:
        raw = {
            "setup_s": statistics.median(setup_times),
            "sim_kips": sim_kips,
            "points_per_min": points_per_min,
            "latency_p50_ms": ops.p50_ms(),
            "latency_tail_ms": tail.value,
        }
        if rescaled:
            slowdown = 1.0
        else:
            details["unscaled"] = raw
        metrics = {"setup_s": raw["setup_s"]}
        metrics.update({name: value / slowdown for name, value in raw.items()
                        if name in _TIMES})
        metrics.update({name: value * slowdown for name, value in raw.items()
                        if name in _RATES})
    return Report(attempted=ops.attempted, failed=ops.failed,
                  metrics=metrics, details=details)


# ----------------------------------------------------------------------
# point-live
# ----------------------------------------------------------------------


def point_live(context: Context) -> Report:
    setup_times = []
    streams: Dict[str, list] = {}
    length = int(plans.POINT_LIVE_INSTRUCTIONS * plans.POINT_LIVE_STREAM_SLACK)
    before = context.host.sample()
    for _ in range(_setup_repeats(context)):
        started = time.perf_counter()
        with context.traced(True):
            streams = {
                benchmark: list(SyntheticWorkload(get_profile(benchmark))
                                .instructions(length))
                for benchmark in plans.POINT_LIVE_BENCHMARKS
            }
        elapsed = time.perf_counter() - started
        after = context.host.sample()
        setup_times.append(context.host.rescale(elapsed, before, after))
        before = after

    config = ProcessorConfig(max_instructions=plans.POINT_LIVE_INSTRUCTIONS)
    rotations = plans.point_live_plan(context.seed)
    ops = OpLog(timeout_s=UNIT_TIMEOUT_S)
    units = _Units(context, len(rotations))
    kips: List[float] = []
    per_min: List[float] = []
    unscaled_kips: List[float] = []
    # Every call starts from the same collector state, right after the
    # kernel run that, with the one after the call, calibrates it.
    gc.collect()
    before = context.host.sample()
    for index, traced in units:
        busy = scaled = 0.0
        committed = 0
        for benchmark, architecture in rotations[index]:
            with context.traced(traced):
                started = time.perf_counter()
                stats = simulate(streams[benchmark],
                                 plans.POINT_LIVE_ARCHITECTURES[architecture],
                                 config, benchmark_name=benchmark)
                elapsed = time.perf_counter() - started
            context.digests.check(
                plans.point_live_id(benchmark, architecture), stats.to_dict())
            gc.collect()
            after = context.host.sample()
            call_s = context.host.rescale(elapsed, before, after)
            before = after
            ops.record(call_s)
            busy += elapsed
            scaled += call_s
            committed += stats.committed_instructions
        units.add(traced, busy)
        kips.append(committed / scaled / 1000.0)
        per_min.append(60.0 * len(rotations[index]) / scaled)
        unscaled_kips.append(committed / busy / 1000.0)
    return _report(context, ops, units, setup_times, statistics.median(kips),
                   statistics.median(per_min),
                   {"unscaled_sim_kips": statistics.median(unscaled_kips)},
                   rescaled=True)


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------


def _engine(cache_dir: str) -> SweepEngine:
    return SweepEngine(store=ResultStore(cache_dir=cache_dir), jobs=1,
                       trace_store=TraceStore(cache_dir))


def sweep_cold(context: Context) -> Report:
    setup_times = []
    warmup = plans.sweep_warmup_points()
    before = context.host.sample()
    for _ in range(_setup_repeats(context)):
        cache_dir = tempfile.mkdtemp(dir=context.scratch_dir)
        try:
            started = time.perf_counter()
            _engine(cache_dir).execute(warmup)
            elapsed = time.perf_counter() - started
        finally:
            shutil.rmtree(cache_dir)
        after = context.host.sample()
        setup_times.append(context.host.rescale(elapsed, before, after))
        before = after

    planned = plans.sweep_plan(context.seed)
    points = [entry.point for entry in planned]
    ops = OpLog(timeout_s=UNIT_TIMEOUT_S)
    units = _Units(context, plans.SWEEP_UNITS)
    kips: List[float] = []
    per_min: List[float] = []
    unscaled_kips: List[float] = []
    for _index, traced in units:
        cache_dir = tempfile.mkdtemp(dir=context.scratch_dir)
        wall = scaled = 0.0
        before = context.host.sample()
        last = time.perf_counter()

        def between_points(_point) -> None:
            # A point's time runs from the end of the previous one.
            nonlocal wall, scaled, before, last
            elapsed = time.perf_counter() - last
            with context.traced(False):
                after = context.host.sample()
            wall += elapsed
            scaled += context.host.rescale(elapsed, before, after)
            before = after
            last = time.perf_counter()

        try:
            with context.traced(traced):
                engine = _engine(cache_dir)
                engine.execute(points, on_point=between_points)
                between_points(None)
            committed = 0
            for entry in planned:
                stats = engine.store.peek(entry.point.store_key())
                if stats is None:
                    raise OutputMismatch(f"{entry.id}: the sweep left no result")
                context.digests.check(entry.id, stats.to_dict())
                committed += stats.committed_instructions
        finally:
            shutil.rmtree(cache_dir)
        units.add(traced, wall)
        ops.record(scaled)
        kips.append(committed / scaled / 1000.0)
        per_min.append(60.0 * len(points) / scaled)
        unscaled_kips.append(committed / wall / 1000.0)
    return _report(context, ops, units, setup_times, statistics.median(kips),
                   statistics.median(per_min),
                   {"unscaled_sim_kips": statistics.median(unscaled_kips)},
                   rescaled=True)


# ----------------------------------------------------------------------
# service-warm
# ----------------------------------------------------------------------


class _Service:
    """A ``ServiceApp`` behind its loopback HTTP server, plus a client."""

    def __init__(self, cache_dir: str) -> None:
        self.app = ServiceApp(cache_dir=cache_dir, jobs=1, job_concurrency=1)
        self.server = build_server(self.app, host="127.0.0.1", port=0)
        self.app.start()
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-http", daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}", timeout=JOB_TIMEOUT_S)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.app.stop(drain=True)


@dataclass
class _JobRun:
    outcome: str
    latency_s: float
    polls: int = 0
    record: Optional[dict] = None
    body: Optional[dict] = None


def run_job(client: ServiceClient, spec: dict,
            http: Dict[str, List[float]]) -> _JobRun:
    """Submit, poll ``status`` at a fixed interval, fetch the result.

    The latency runs from the submit call until the result body is in
    hand.  A refused submission is ``refused``; a job that fails, errs
    on the wire or outlives :data:`JOB_TIMEOUT_S` is ``failed``.
    """
    started = time.perf_counter()

    def timed(kind: str, call, *args):
        begun = time.perf_counter()
        try:
            return call(*args)
        finally:
            http[kind].append(time.perf_counter() - begun)

    try:
        job = timed("submit", client.submit, spec)
    except ServiceError:
        return _JobRun(REFUSED, time.perf_counter() - started)
    polls = 0
    try:
        while True:
            record = timed("status", client.status, job["id"])
            polls += 1
            if record["state"] in ("completed", "failed"):
                break
            if time.perf_counter() - started > JOB_TIMEOUT_S:
                return _JobRun(FAILED, time.perf_counter() - started, polls)
            time.sleep(POLL_INTERVAL_S)
        if record["state"] != "completed":
            return _JobRun(FAILED, time.perf_counter() - started, polls, record)
        body = timed("result", client.result, job["id"])
    except ServiceError:
        return _JobRun(FAILED, time.perf_counter() - started, polls)
    return _JobRun(OK, time.perf_counter() - started, polls, record, body)


def service_setup(context: Context,
                   cache_dir: str) -> Tuple[_Service, Dict[str, str]]:
    """Boot the service and compute every plan once; returns the service
    and each plan's canonical result."""
    service = _Service(cache_dir)
    try:
        references = {}
        for name, spec in plans.SERVICE_PLANS.items():
            run = run_job(service.client, spec, defaultdict(list))
            if run.outcome != OK:
                raise OutputMismatch(f"set-up plan {name} ended {run.outcome}")
            context.digests.check(f"service-warm/plan/{name}", run.body["result"])
            references[name] = canonical(run.body["result"])
    except BaseException:
        service.close()
        raise
    return service, references


def service_warm(context: Context) -> Report:
    setup_times = []
    service = None
    cache_dir = None
    ops = OpLog(timeout_s=JOB_TIMEOUT_S)
    by_kind = {"cached": OpLog(timeout_s=JOB_TIMEOUT_S),
               "fresh": OpLog(timeout_s=JOB_TIMEOUT_S)}
    traced_http: Dict[str, List[float]] = defaultdict(list)
    traced_polls: List[int] = []
    points = 0
    waited = fresh_waited = 0.0
    fresh_committed = 0
    try:
        for _ in range(_setup_repeats(context)):
            if service is not None:
                service.close()
                service = None
                shutil.rmtree(cache_dir)
            context.host.sample()
            cache_dir = tempfile.mkdtemp(dir=context.scratch_dir)
            started = time.perf_counter()
            service, references = service_setup(context, cache_dir)
            setup_times.append(time.perf_counter() - started)

        blocks = plans.service_plan(context.seed)
        units = _Units(context, len(blocks))
        for index, traced in units:
            http: Dict[str, List[float]] = traced_http if traced else defaultdict(list)
            context.host.sample()
            block_seconds = 0.0
            for job in blocks[index]:
                with context.traced(traced):
                    run = run_job(service.client, job.spec, http)
                block_seconds += run.latency_s
                ops.record(run.latency_s, run.outcome)
                by_kind[job.kind].record(run.latency_s, run.outcome)
                if traced:
                    traced_polls.append(run.polls)
                if run.outcome != OK:
                    continue
                result = run.body["result"]
                if job.kind == "cached":
                    if canonical(result) != references[job.name]:
                        raise OutputMismatch(
                            f"cached {job.name} job {run.body['id']} differs "
                            f"from the set-up result of its plan")
                    context.digests.checked += 1
                else:
                    stats = result["points"][0]["stats"]
                    context.digests.check(job.name, stats)
                    fresh_committed += stats["committed_instructions"]
                    fresh_waited += run.latency_s
                points += run.record["points"]["unique"]
                waited += run.latency_s
            units.add(traced, block_seconds)
    finally:
        if service is not None:
            service.close()
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)

    details = {}
    for kind, log in by_kind.items():
        kind_tail = log.tail()
        details[f"{kind}_job_p50_ms"] = log.p50_ms()
        details[f"{kind}_job_tail_ms"] = kind_tail.value
        details[f"{kind}_job_tail"] = kind_tail.describe()
    layer_extra = {}
    if traced_polls:
        layer_extra = {
            "service.http_submit_ms": 1000 * statistics.fmean(traced_http["submit"]),
            "service.http_status_ms": 1000 * statistics.fmean(traced_http["status"]),
            "service.http_result_ms": 1000 * statistics.fmean(traced_http["result"]),
            "service.polls_per_job": statistics.fmean(traced_polls),
            "obs.events_per_job": _ratio(
                context.tracer.calls["obs.event_append"], len(traced_polls)),
        }
    return _report(context, ops, units, setup_times,
                   _ratio(fresh_committed, fresh_waited) / 1000.0,
                   _ratio(60.0 * points, waited), details, layer_extra)


WORKLOAD_RUNNERS = {
    "point-live": point_live,
    "sweep-cold": sweep_cold,
    "service-warm": service_warm,
}
