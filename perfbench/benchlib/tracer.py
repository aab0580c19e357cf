"""Spans around each layer's public entry points, for traced runs only.

:func:`instrument` rebinds every entry point listed in :data:`ENTRY_POINTS`
to a wrapper, *at the module binding the caller actually uses*:
``repro.experiments.scheduler`` imports ``record_trace_with_stats`` and
``replay_simulate`` by name, so those bindings are wrapped as well as
the defining modules'.  A wrapper costs one attribute test while its
:class:`Tracer` is inactive, so the benchmark traces every other unit of
work and compares the two halves (``trace_overhead``).

Spans stay in memory — name, start, end, parent, run id, thread — and
are written as JSON lines when the run ends.  A span's self time is its
duration minus the time of its direct children in the same thread; the
lazily consumed workload generator is charged to whichever span consumes
it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional

#: (module, attribute path, span name, result hook) for every wrapped
#: entry point; the hook names a :class:`Tracer` method fed the result
#: of each traced call.
ENTRY_POINTS = (
    ("repro.workloads.synthetic", "SyntheticWorkload.instructions",
     "workloads.generate", "generator"),
    ("repro.pipeline.processor", "Processor.run", "pipeline.simulate",
     "on_stats"),
    ("repro.trace.recorder", "record_trace_with_stats", "trace.record", None),
    ("repro.experiments.scheduler", "record_trace_with_stats",
     "trace.record", None),
    ("repro.trace.replayer", "replay_simulate", "trace.replay", None),
    ("repro.experiments.scheduler", "replay_simulate", "trace.replay", None),
    ("repro.trace.store", "TraceStore.get", "trace.store_get", "on_trace_get"),
    ("repro.trace.store", "TraceStore.put", "trace.store_put", None),
    ("repro.sampling.engine", "sampled_simulate", "sampling.simulate",
     "on_sampled"),
    ("repro.experiments.scheduler", "SweepEngine.execute",
     "experiments.execute", "on_execute"),
    ("repro.experiments.store", "ResultStore.get", "storage.result_get", None),
    ("repro.experiments.store", "ResultStore.put", "storage.result_put", None),
    ("repro.service.app", "ServiceApp.submit", "service.app_submit", None),
    ("repro.service.app", "ServiceApp._fleet_poll_once", "service.fleet_poll",
     None),
    ("repro.service.jobs", "JobStore.save", "service.job_save", None),
    ("repro.service.fleet", "LeaseManager.acquire", "service.lease", None),
    ("repro.service.fleet", "LeaseManager.release", "service.lease", None),
    ("repro.obs.events", "EventLog.append", "obs.event_append", None),
)

#: Simulated counters summed over every pipeline run, by metric name.
STATS_FIELDS = {
    "pipeline.sim_cycles": "cycles",
    "pipeline.sim_committed": "committed_instructions",
    "frontend.branch_mispredictions": "branch_mispredictions",
    "memsys.icache_misses": "icache_misses",
    "memsys.dcache_misses": "dcache_misses",
    "rename.dispatch_stalls_registers": "dispatch_stalls_registers",
    "execute.dispatch_stalls_window": "dispatch_stalls_window",
    "execute.dispatch_stalls_rob": "dispatch_stalls_rob",
    "execute.issue_stalls_fu": "issue_stalls_fu",
    "regfile.issue_stalls_ports": "issue_stalls_ports",
    "regfile.issue_stalls_fill": "issue_stalls_fill",
    "regfile.operands_from_bypass": "operands_from_bypass",
    "regfile.operands_from_file": "operands_from_file",
}
#: Register-file counters, summed over the integer and FP files.
REGFILE_FIELDS = {
    "regfile.upper_misses": "upper_misses",
    "regfile.bus_denied": "bus_denied",
    "regfile.bank_conflicts": "bank_conflicts",
}


class _Span:
    __slots__ = ("index", "name", "parent", "start", "children")

    def __init__(self, index: int, name: str, parent: Optional[int],
                 start: float) -> None:
        self.index = index
        self.name = name
        self.parent = parent
        self.start = start
        self.children = 0.0


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Counts fed by result hooks (simulated stats, engine counters).
        self.sums: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Span:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append({})  # placeholder, filled in on close
        span = _Span(index, name, stack[-1].index if stack else None,
                     time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - span.start
        if stack:
            stack[-1].children += duration
        self_time = duration - span.children
        with self._lock:
            self.busy[span.name] += duration
            self.self_time[span.name] += self_time
            self.calls[span.name] += 1
            self.spans[span.index] = {
                "name": span.name, "id": span.index, "parent": span.parent,
                "run": self.run_id, "thread": threading.current_thread().name,
                "start": span.start - self.origin, "end": end - self.origin,
                "self": self_time,
            }

    def charge(self, name: str, seconds: float) -> None:
        """Bill ``seconds`` of ``name`` work done inside the current span."""
        stack = self._stack()
        if stack:
            stack[-1].children += seconds
        with self._lock:
            self.busy[name] += seconds
            self.self_time[name] += seconds

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.sums[key] += amount

    @contextlib.contextmanager
    def enabled(self, on: bool = True) -> Iterator[None]:
        previous, self.active = self.active, on
        try:
            yield
        finally:
            self.active = previous

    # ------------------------------------------------------------------
    # result hooks
    # ------------------------------------------------------------------

    def on_stats(self, stats) -> None:
        for key, field in STATS_FIELDS.items():
            self.add(key, getattr(stats, field))
        regfile = stats.regfile_statistics
        for key, field in REGFILE_FIELDS.items():
            self.add(key, regfile.get(f"int_{field}", 0)
                     + regfile.get(f"fp_{field}", 0))

    def on_trace_get(self, trace) -> None:
        self.add("trace.store_hits", trace is not None)

    def on_sampled(self, stats) -> None:
        sampling = stats.sampling or {}
        self.add("sampling.detailed", sampling.get("detailed_instructions", 0))
        self.add("sampling.total", sampling.get("total_instructions", 0))

    def on_execute(self, counters) -> None:
        for key in ("executed", "cached", "unique"):
            self.add(f"experiments.{key}", counters.get(key, 0))

    def generator(self, iterator):
        return _TimedIterator(iterator, self)

    # ------------------------------------------------------------------

    def wrap(self, name: str, func: Callable, hook: Optional[str]) -> Callable:
        tracer = self
        on_result = getattr(self, hook) if hook else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_result is not None:
                # Observing hooks return None; ``generator`` replaces the result.
                replaced = on_result(result)
                if replaced is not None:
                    result = replaced
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span:
                    handle.write(json.dumps(span, separators=(",", ":")) + "\n")


class _TimedIterator:
    """Charges the time spent producing each item to ``workloads.generate``."""

    def __init__(self, iterator, tracer: Tracer) -> None:
        self._iterator = iterator
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        started = time.perf_counter()
        try:
            return next(self._iterator)
        finally:
            self._tracer.charge("workloads.generate",
                                time.perf_counter() - started)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the ``with`` block, then restore the originals.

    An entry point that no longer exists is skipped and listed in
    ``tracer.missing``; its metrics then read zero.
    """
    originals = []
    wrappers: Dict[int, Callable] = {}
    try:
        for module_name, path, name, hook in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            func = getattr(owner, attribute, None) if owner is not None else None
            if func is None:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            # One wrapper per function, shared by every binding of it.
            wrapper = wrappers.get(id(func))
            if wrapper is None:
                wrapper = wrappers[id(func)] = tracer.wrap(name, func, hook)
            originals.append((owner, attribute, func))
            setattr(owner, attribute, wrapper)
        yield tracer
    finally:
        for owner, attribute, func in reversed(originals):
            setattr(owner, attribute, func)
