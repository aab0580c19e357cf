"""Systematic interval sampling over a decoded trace.

The engine implements the SMARTS-style recipe: detailed windows at a
fixed stride, functional fast-forward between them, and a CLT estimate
over the per-window IPCs.

* **Window placement** — window starts are the multiples of the stride,
  snapped forward to the next *fetch-event boundary* of the trace
  (fetch groups are indivisible: a blocked group must end with its
  mispredicted branch, so a window cannot begin inside one).
* **Functional warm-up** — before each window, the ``warmup``
  instructions preceding it are replayed through the *rename and
  value-tracking* structures only: map table, scoreboard, register-file
  model (including RFC upper-level content) and the data cache.  One
  instruction retires per warm cycle at negative cycle numbers, so the
  window itself starts at cycle 0 with warmed state and zero timing
  residue.
* **Estimate** — IPC is reported as the mean of the per-window IPCs
  with a Student-t confidence interval (the per-window populations are
  equal-size, so the unweighted mean is the systematic-sampling
  estimator).  With ``target_half_width`` set, windows are added until
  the relative half-width drops below the target.

The aggregated :class:`~repro.pipeline.stats.SimulationStats` sums the
windows' counters (so rates such as cache hit rate remain meaningful
over the *detailed* portion) and carries the interval in its
``sampling`` field.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.execute.issue_queue import IssueQueueEntry
from repro.isa.instruction import RegisterClass
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.pipeline.stats import SimulationStats
from repro.sampling.spec import SamplingSpec
from repro.trace.replayer import TraceReplayer
from repro.trace.schema import DecodedTrace

# Enum members bound once, as in ``repro.pipeline.processor``.
_INT = RegisterClass.INT
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE

# ----------------------------------------------------------------------
# Student-t critical values
# ----------------------------------------------------------------------

#: Two-sided Student-t critical values for df = 1..30; beyond that the
#: normal approximation (the last entry of each ``(table, z)`` pair) is
#: within 0.7% of the exact value.  Committed as literals so the engine
#: needs no scipy dependency.
_T_TABLES = {
    0.90: (
        (6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
         1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734,
         1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703,
         1.701, 1.699, 1.697),
        1.645,
    ),
    0.95: (
        (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
         2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
         2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
         2.048, 2.045, 2.042),
        1.960,
    ),
    0.99: (
        (63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
         3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
         2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
         2.763, 2.756, 2.750),
        2.576,
    ),
}


def t_critical(confidence: float, samples: int) -> float:
    """Two-sided Student-t critical value for ``samples`` window IPCs."""
    try:
        table, z = _T_TABLES[confidence]
    except KeyError:
        raise ConfigurationError(
            f"no Student-t table for confidence {confidence!r}"
        ) from None
    df = samples - 1
    if df < 1:
        raise ConfigurationError(
            "a confidence interval needs at least two sampled windows"
        )
    if df <= len(table):
        return table[df - 1]
    return z


def confidence_interval(values: List[float], confidence: float) -> Tuple[float, float]:
    """``(mean, half_width)`` of the two-sided interval over ``values``."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half_width = t_critical(confidence, n) * math.sqrt(variance / n)
    return mean, half_width


# ----------------------------------------------------------------------
# window placement
# ----------------------------------------------------------------------

def event_offsets(trace: DecodedTrace) -> List[int]:
    """Cumulative instruction offset at the start of each fetch event."""
    offsets: List[int] = []
    position = 0
    for event in trace.events:
        offsets.append(position)
        position += event[0]
    return offsets


def window_plan(trace: DecodedTrace, spec: SamplingSpec) -> List[Tuple[int, int]]:
    """Detailed-window placement: ``(event_index, start_offset)`` pairs.

    Window ``k`` targets instruction offset ``k * stride`` and snaps
    forward to the first fetch-event boundary at or past it; windows
    whose ``window`` instructions do not fit the stream are dropped.

    Raises
    ------
    ConfigurationError
        When the trace is too short to place two windows (no interval).
    """
    offsets = event_offsets(trace)
    total = len(trace.instructions)
    plan: List[Tuple[int, int]] = []
    last_start = -1
    k = 0
    while True:
        target = k * spec.stride
        if target >= total:
            break
        index = bisect_left(offsets, target)
        if index >= len(offsets):
            break
        start = offsets[index]
        if start != last_start and start + spec.window <= total:
            plan.append((index, start))
            last_start = start
        k += 1
    if len(plan) < 2:
        raise ConfigurationError(
            f"trace {trace.name!r} ({total} instructions) is too short for "
            f"sampling with stride {spec.stride} and window {spec.window}: "
            f"only {len(plan)} window(s) fit — use exact mode or a smaller "
            "stride"
        )
    return plan


# ----------------------------------------------------------------------
# functional warm-up
# ----------------------------------------------------------------------

def functional_warmup(processor: Processor, instructions) -> None:
    """Warm a freshly built processor's value-tracking state.

    Replays ``instructions`` through rename, the scoreboard, the
    register-file model and the data cache — one instruction per cycle
    at negative cycle numbers, with the previous mapping of each
    destination released immediately (so any physical-register budget
    that admits the logical set suffices).  No pipeline timing runs, no
    statistic of the subsequent detailed window is touched: the data
    cache's hit/miss counters are zeroed afterwards and the value-read
    distribution is deliberately not updated on release.
    """
    if not instructions:
        return
    renamer = processor.renamer
    scoreboard = processor.scoreboard
    sb_states = processor._sb_states
    int_free = renamer._int_free
    fp_free = renamer._fp_free
    int_rf = processor._int_rf
    fp_rf = processor._fp_rf
    window = processor.window
    dcache = processor.dcache
    cycle = -len(instructions)
    for instruction in instructions:
        int_rf.begin_cycle(cycle)
        fp_rf.begin_cycle(cycle)
        record = renamer.rename(IssueQueueEntry(instruction))
        dest = record.dest
        if dest is not None:
            state = scoreboard.allocate(dest, instruction.seq)
            state.ex_end_cycle = cycle
            regfile = int_rf if dest.reg_class is _INT else fp_rf
            state.rf_ready_cycle = regfile.writeback(dest, state, cycle, window)
            state.written_back = True
        op_class = instruction.op_class
        if op_class is _LOAD:
            dcache.access(instruction.mem_address or 0)
        elif op_class is _STORE:
            dcache.access(instruction.mem_address or 0, is_write=True)
        released = record.previous_dest
        if released is not None:
            (int_free if released.reg_class is _INT
             else fp_free).release(released.index)
            state = sb_states.get(released.uid)
            if state is not None:
                scoreboard.release(released)
                (int_rf if released.reg_class is _INT
                 else fp_rf).release(released)
        cycle += 1
    # Warm accesses must not count toward the detailed window's rates.
    dcache.hits = 0
    dcache.misses = 0


# ----------------------------------------------------------------------
# windows and aggregation
# ----------------------------------------------------------------------

def run_window(
    trace: DecodedTrace,
    regfile_factory: Callable,
    config: ProcessorConfig,
    event_index: int,
    start_offset: int,
    window: int,
    warmup: int,
    benchmark_name: Optional[str] = None,
) -> SimulationStats:
    """Simulate one detailed window of ``window`` committed instructions."""
    run_config = config.with_overrides(max_instructions=window, max_cycles=None)
    replayer = TraceReplayer(trace, start_event=event_index)
    processor = Processor(
        None,
        regfile_factory,
        run_config,
        benchmark_name=benchmark_name or trace.name,
        frontend=replayer,
    )
    warm_start = max(0, start_offset - warmup)
    functional_warmup(processor, trace.instructions[warm_start:start_offset])
    return processor.run()


_SUM_EXEMPT = ("benchmark", "architecture", "commit_checksum", "sampling")


def _aggregate_stats(window_stats: List[SimulationStats]) -> SimulationStats:
    first = window_stats[0]
    total = SimulationStats(
        benchmark=first.benchmark, architecture=first.architecture
    )
    counter_fields = SimulationStats._COUNTER_FIELDS
    for stats in window_stats:
        for spec in dataclasses.fields(SimulationStats):
            name = spec.name
            if name in _SUM_EXEMPT:
                continue
            value = getattr(stats, name)
            if name in counter_fields:
                getattr(total, name).update(value)
            elif name == "regfile_statistics":
                merged = total.regfile_statistics
                for key, count in value.items():
                    merged[key] = merged.get(key, 0) + count
            elif name.startswith("max_"):
                if value > getattr(total, name):
                    setattr(total, name, value)
            else:
                setattr(total, name, getattr(total, name) + value)
    return total


def sampled_simulate(
    trace: DecodedTrace,
    regfile_factory: Callable,
    config: ProcessorConfig,
    spec: SamplingSpec,
    benchmark_name: Optional[str] = None,
) -> SimulationStats:
    """Estimate one point's statistics by systematic interval sampling.

    Returns aggregated stats over the detailed windows; the
    ``sampling`` field carries the spec, the per-window IPCs, and the
    mean ± half-width summary.  ``stats.ipc`` is the ratio estimate
    (total committed / total cycles over the windows); the interval in
    ``stats.sampling`` is the authoritative accuracy statement.
    """
    plan = window_plan(trace, spec)
    if spec.max_windows is not None:
        plan = plan[: spec.max_windows]
    warmup = spec.effective_warmup
    window_stats: List[SimulationStats] = []
    ipcs: List[float] = []
    mean = half_width = 0.0
    for event_index, start_offset in plan:
        stats = run_window(
            trace, regfile_factory, config, event_index, start_offset,
            spec.window, warmup, benchmark_name=benchmark_name,
        )
        window_stats.append(stats)
        ipcs.append(stats.ipc)
        mean, half_width = confidence_interval(ipcs, spec.confidence)
        if (
            spec.target_half_width is not None
            and len(ipcs) >= spec.min_windows
            and mean > 0.0
            and half_width / mean <= spec.target_half_width
        ):
            break

    aggregate = _aggregate_stats(window_stats)
    n = len(ipcs)
    variance = (
        sum((v - mean) ** 2 for v in ipcs) / (n - 1) if n > 1 else 0.0
    )
    aggregate.sampling = {
        "spec": spec.to_payload(),
        "windows": n,
        "window_ipcs": [round(v, 6) for v in ipcs],
        "ipc_mean": round(mean, 6),
        "ipc_std": round(math.sqrt(variance), 6),
        "confidence": spec.confidence,
        "ci_half_width": round(half_width, 6),
        "detailed_instructions": aggregate.committed_instructions,
        "total_instructions": len(trace.instructions),
    }
    return aggregate
