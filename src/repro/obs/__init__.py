"""End-to-end observability: metrics, trace-context spans, events.

The subsystem has four small, composable parts:

* :mod:`repro.obs.metrics` — a process-local **metrics registry**
  (counters, histograms with fixed exponential buckets, and collectors
  for values their owners already keep) that every layer of the sweep
  service reports through.  Fixed buckets make histograms from
  different replicas sum exactly, so a fleet-wide latency distribution
  is the sum of the per-replica scrapes.
* :mod:`repro.obs.context` — **trace contexts**: a ``trace_id`` minted
  by :class:`~repro.service.client.ServiceClient` (or the server at
  admission) and propagated via the ``X-Repro-Trace`` header through
  job records and into the engine, so every span a job produces
  anywhere in the fleet shares one trace.
* :mod:`repro.obs.events` — the **event log**: a bounded,
  schema-versioned JSONL stream under ``<cache-dir>/events/`` (one
  file series per writer, size-rotated) plus an in-memory ring buffer
  feeding the ``GET /events`` SSE endpoint with resume-from-``seq``.
* :mod:`repro.obs.prometheus` — text **exposition** (format 0.0.4) of
  the registry for ``GET /metrics?format=prometheus``, with the
  minimal parser the tests and CI validate it against.

``python -m repro.obs report <events-dir>`` renders a per-job latency
breakdown and point-latency percentiles from a recorded event log; see
``docs/observability.md`` for the span taxonomy and event format.

Everything is stdlib-only and disabled-by-default outside the service:
a :class:`Telemetry` handle bundles one registry + event log + bus, and
production guards are a single ``is None`` test when no telemetry is
attached (the same discipline as :mod:`repro.chaos.seams`, held to the
same overhead bound by the ``obs_overhead`` bench gate).
"""

from repro.obs.context import TraceContext, TRACE_HEADER, new_trace
from repro.obs.events import EventBus, EventLog, read_events
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    RateWindow,
)
from repro.obs.telemetry import Telemetry

__all__ = [
    "TRACE_HEADER",
    "Counter",
    "EventBus",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "RateWindow",
    "Telemetry",
    "TraceContext",
    "new_trace",
    "read_events",
]
