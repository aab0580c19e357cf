"""The :class:`Telemetry` handle: one registry + event log + bus.

The service app owns exactly one ``Telemetry`` and threads it (or the
individual instruments it creates) into the layers below — there is no
process-global, because tests and the chaos harness run several apps
in one process.  Every emission path is guarded so a missing or broken
telemetry never breaks the work it observes.

Spans come in two shapes:

* ``with telemetry.span("execute", context, job_id=...) :`` — the
  common case, a timed block on one thread.  Emits ``span_start`` /
  ``span_end`` (with ``duration_s`` from ``perf_counter``) and binds
  the span's context for the block, so nested spans and the storage
  observer pick it up.
* :meth:`span_start` / :meth:`span_end` — explicit halves for spans
  whose ends live on another thread (queue-wait starts at submission,
  ends in the executor).

The span taxonomy (see ``docs/observability.md``)::

    job                      root span, one per submitted job
    ├─ queue.wait            admission → executor pickup (ends at admission
    │                        for a job answered there)
    ├─ lease.hold            lease acquire → release (queued jobs only)
    └─ execute               the engine run
       ├─ trace.record       one trace-record worker call
       ├─ trace.replay       one replay batch
       ├─ point.simulate     one point (attr: strategy)
       ├─ storage.append     one sharded-store append
       └─ storage.compact    one shard compaction
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator, Optional

from repro.obs import context as _context
from repro.obs.context import TraceContext
from repro.obs.events import EventBus, EventLog
from repro.obs.metrics import MetricsRegistry


class Telemetry:
    """One replica's observability bundle.

    ``registry`` is always present; ``log`` and ``bus`` are optional
    (the report CLI's tests build log-only telemetry, the engine's unit
    tests registry-only).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        log: Optional[EventLog] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = log
        self.bus = bus

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def emit(self, kind: str, **fields) -> Optional[dict]:
        """Append one event to the log and mirror it onto the bus.

        Fields equal to ``None`` are dropped (keeps the JSONL lean);
        the active trace context is stamped on when the caller didn't
        pass ``trace_id`` explicitly.
        """
        event = {"kind": kind}
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        if "trace_id" not in event:
            active = _context.current()
            if active is not None:
                event["trace_id"] = active.trace_id
        if self.log is None:
            return None
        record = self.log.append(event)
        if record is not None and self.bus is not None:
            self.bus.publish(record)
        return record

    def phase(self, job_id: str, phase: str,
              trace: Optional[TraceContext] = None, **fields) -> None:
        """A job phase transition (queued → leased → running → …; a job
        answered at admission has no ``leased`` phase)."""
        self.emit(
            "job_phase",
            job_id=job_id,
            phase=phase,
            trace_id=trace.trace_id if trace is not None else None,
            **fields,
        )

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def span_start(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        **attrs,
    ) -> TraceContext:
        """Open a span and emit ``span_start``; returns the span's
        context (pass it to :meth:`span_end`, or to children as their
        parent).  With no parent, the active context is used; with no
        active context either, a fresh trace is minted so orphaned
        operations still produce well-formed pairs."""
        if parent is None:
            parent = _context.current()
        span = parent.child() if parent is not None else _context.new_trace()
        self.emit(
            "span_start",
            span=name,
            trace_id=span.trace_id,
            span_id=span.span_id,
            parent_span_id=parent.span_id if parent is not None else None,
            **attrs,
        )
        return span

    def span_end(
        self,
        name: str,
        span: TraceContext,
        started: Optional[float] = None,
        duration_s: Optional[float] = None,
        **attrs,
    ) -> None:
        """Close a span.  ``started`` is a ``perf_counter`` timestamp
        (preferred — the duration is computed here); callers that timed
        themselves pass ``duration_s`` directly."""
        if duration_s is None and started is not None:
            duration_s = time.perf_counter() - started
        self.emit(
            "span_end",
            span=name,
            trace_id=span.trace_id,
            span_id=span.span_id,
            duration_s=round(duration_s, 6) if duration_s is not None else None,
            **attrs,
        )

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        histogram: Optional[str] = None,
        **attrs,
    ) -> Iterator[TraceContext]:
        """Emit a ``span_start``/``span_end`` pair around the block and
        bind the span's context inside it.  With ``histogram=<name>``
        the duration is also observed into that registry histogram."""
        span = self.span_start(name, parent, **attrs)
        started = time.perf_counter()
        error: Optional[str] = None
        try:
            with _context.bind(span):
                yield span
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            duration = time.perf_counter() - started
            if histogram is not None:
                self.registry.histogram(histogram).observe(duration)
            # The start's attrs ride the end too, so consumers filtering
            # on one attribute (e.g. job_id) need only span_end events.
            self.span_end(name, span, duration_s=duration, error=error,
                          **attrs)

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self.log is not None:
            self.log.close()
