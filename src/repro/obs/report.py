"""``python -m repro.obs report`` — render an event log for humans.

Reads a ``<cache-dir>/events/`` directory, reconstructs each trace's
span tree from the ``span_start``/``span_end`` pairs, and prints:

* a **per-job latency breakdown** table — wall, queue-wait, execute and
  storage time per job, with phase timeline anomalies (unfinished
  spans) flagged;
* a **point-latency summary** — p50/p95/p99 over every
  ``point.simulate`` span duration (exact percentiles from the raw
  durations, not bucket approximations — the log keeps them all).

The same reconstruction (:func:`build_job_reports`) backs the chaos
timeline checks and the CI ``obs`` job, so "the CLI's view" and "what
CI asserts" can't drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.events import read_events, span_pairs

#: The span summed into the breakdown's storage column.
_STORAGE_SPAN = "storage.append"


@dataclass
class SpanRecord:
    """One completed (or dangling) span, joined from its event pair."""

    name: str
    trace_id: str
    span_id: str
    parent_span_id: Optional[str]
    started_ts: float
    duration_s: Optional[float]  # None while unfinished
    attrs: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.duration_s is not None


@dataclass
class JobReport:
    """Everything the breakdown table needs about one job's trace."""

    job_id: str
    trace_id: str
    wall_s: Optional[float] = None
    queue_wait_s: float = 0.0
    execute_s: float = 0.0
    lease_hold_s: float = 0.0
    storage_s: float = 0.0
    points: int = 0
    phases: List[str] = field(default_factory=list)
    unfinished: List[str] = field(default_factory=list)


_META_KEYS = frozenset(
    (
        "schema", "seq", "ts", "source", "kind", "span", "trace_id",
        "span_id", "parent_span_id", "duration_s", "error",
    )
)


def collect_spans(events: List[dict]) -> List[SpanRecord]:
    """Join ``span_start``/``span_end`` pairs into :class:`SpanRecord`s
    (unfinished starts are kept, with ``duration_s=None``)."""
    starts, ends = span_pairs(events)
    spans: List[SpanRecord] = []
    for span_id, start in starts.items():
        end = ends.get(span_id)
        attrs = {
            key: value for key, value in start.items()
            if key not in _META_KEYS
        }
        spans.append(
            SpanRecord(
                name=str(start.get("span", "?")),
                trace_id=str(start.get("trace_id", "")),
                span_id=span_id,
                parent_span_id=start.get("parent_span_id"),
                started_ts=float(start.get("ts", 0.0)),
                duration_s=(
                    float(end["duration_s"])
                    if end is not None and end.get("duration_s") is not None
                    else None
                ),
                attrs=attrs,
            )
        )
    spans.sort(key=lambda s: s.started_ts)
    return spans


def build_job_reports(events: List[dict]) -> List[JobReport]:
    """One :class:`JobReport` per root ``job`` span, in start order."""
    spans = collect_spans(events)
    by_trace: Dict[str, List[SpanRecord]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    phases: Dict[str, List[str]] = {}
    for event in events:
        if event.get("kind") == "job_phase":
            job_id = str(event.get("job_id", "?"))
            phases.setdefault(job_id, []).append(str(event.get("phase", "?")))

    reports: List[JobReport] = []
    for span in spans:
        if span.name != "job":
            continue
        report = JobReport(
            job_id=str(span.attrs.get("job_id", "?")),
            trace_id=span.trace_id,
            wall_s=span.duration_s,
        )
        for member in by_trace.get(span.trace_id, ()):
            if not member.finished:
                if member.name != "job" or member.span_id != span.span_id:
                    report.unfinished.append(member.name)
                continue
            if member.name == "queue.wait":
                report.queue_wait_s += member.duration_s
            elif member.name == "execute":
                report.execute_s += member.duration_s
            elif member.name == "lease.hold":
                report.lease_hold_s += member.duration_s
            elif member.name == _STORAGE_SPAN:
                report.storage_s += member.duration_s
            elif member.name == "point.simulate":
                report.points += 1
        if not span.finished:
            report.unfinished.append("job")
        report.phases = phases.get(report.job_id, [])
        reports.append(report)
    return reports


def point_durations(events: List[dict]) -> List[float]:
    """Every finished ``point.simulate`` duration, in seconds."""
    return [
        span.duration_s
        for span in collect_spans(events)
        if span.name == "point.simulate" and span.finished
    ]


def exact_percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile over raw samples (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _fmt_s(value: Optional[float]) -> str:
    if value is None:
        return "?"
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def render_report(events_dir: str) -> str:
    """The full human-readable report for one events directory."""
    events = read_events(events_dir)
    if not events:
        return f"no events under {events_dir}\n"
    reports = build_job_reports(events)
    lines: List[str] = []
    lines.append(f"{len(events)} events, {len(reports)} jobs")
    lines.append("")
    if reports:
        header = (
            f"{'job':<14} {'wall':>9} {'queue':>9} {'execute':>9} "
            f"{'lease':>9} {'storage':>9} {'points':>6}  phases"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for report in reports:
            phase_text = " > ".join(report.phases) if report.phases else "-"
            if report.unfinished:
                phase_text += f"  [unfinished: {', '.join(report.unfinished)}]"
            lines.append(
                f"{report.job_id[:14]:<14} {_fmt_s(report.wall_s):>9} "
                f"{_fmt_s(report.queue_wait_s):>9} "
                f"{_fmt_s(report.execute_s):>9} "
                f"{_fmt_s(report.lease_hold_s):>9} "
                f"{_fmt_s(report.storage_s):>9} "
                f"{report.points:>6}  {phase_text}"
            )
        lines.append("")
    durations = point_durations(events)
    lines.append(f"point.simulate latency ({len(durations)} samples)")
    for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        lines.append(f"  {label}: {_fmt_s(exact_percentile(durations, q))}")
    return "\n".join(lines) + "\n"
