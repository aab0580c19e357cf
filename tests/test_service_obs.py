"""End-to-end observability through the real HTTP path.

One job rides the full stack — client-minted trace header, admission,
queue, execution, storage — and everything the telemetry layer promises
is checked against that single run: trace propagation, the complete
span timeline, SSE resume-from-``since``, the Prometheus scrape, and
the ``/metrics`` JSON shape staying byte-compatible with what the API
served before the registry existed.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.events import read_events, unfinished_spans
from repro.obs.prometheus import parse as parse_prometheus
from repro.service.app import EVENTS_SUBDIR, ServiceApp
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import build_server


def _spec(n=2, instructions=400):
    return {
        "points": [
            {
                "benchmark": "gcc",
                "architecture": f"obs/{index}",
                "config": {"max_instructions": instructions + index},
            }
            for index in range(n)
        ]
    }


class _Run:
    """Everything captured from one traced job against a live server."""


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("obs-e2e"))
    app = ServiceApp(cache_dir=cache_dir, jobs=1, job_concurrency=1)
    server = build_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    app.start()
    captured = _Run()
    try:
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}", timeout=30.0
        )
        phases = []
        job = client.submit(_spec())
        record = client.watch(job["id"], interval=0.05, timeout=120.0,
                              on_phase=lambda e: phases.append(e["phase"]))
        captured.cache_dir = cache_dir
        captured.trace = client.last_trace
        captured.job_id = job["id"]
        captured.record = record
        captured.phases = phases
        captured.metrics = client.metrics()
        captured.prometheus = client._request(
            "GET", "/metrics?format=prometheus", raw=True
        )
        captured.events = list(client.events(since=0, stop_on_idle=True))
        captured.breakdown = client.job_span_breakdown(job["id"])
        captured.client = client
    finally:
        server.shutdown()
        server.server_close()
        app.stop(drain=True, timeout=60.0)
    captured.disk_events = read_events(
        f"{cache_dir}/{EVENTS_SUBDIR}"
    )
    return captured


class TestTracePropagation:
    def test_job_completes(self, run):
        assert run.record.get("state") == "completed"

    def test_client_trace_reaches_the_job_record(self, run):
        assert run.trace is not None
        assert run.record["trace"]["trace_id"] == run.trace.trace_id

    def test_every_span_of_the_job_carries_the_client_trace(self, run):
        job_spans = [
            e for e in run.disk_events
            if e.get("kind") in ("span_start", "span_end")
            and e.get("job_id") == run.job_id
        ]
        assert job_spans
        assert all(e.get("trace_id") == run.trace.trace_id
                   for e in job_spans)


class TestTimeline:
    def test_every_span_start_has_an_end(self, run):
        assert unfinished_spans(run.disk_events) == []

    def test_the_span_tree_is_complete(self, run):
        names = {
            e.get("span") for e in run.disk_events
            if e.get("kind") == "span_end" and e.get("job_id") == run.job_id
        }
        assert {"job", "queue.wait", "lease.hold", "execute"} <= names

    def test_child_durations_fit_inside_the_job_wall(self, run):
        ends = {
            e["span"]: e.get("duration_s", 0.0)
            for e in run.disk_events
            if e.get("kind") == "span_end" and e.get("job_id") == run.job_id
        }
        # queue.wait and execute are disjoint phases of the job wall.
        assert ends["queue.wait"] + ends["execute"] <= ends["job"] + 0.05

    def test_phase_transitions_streamed_in_order(self, run):
        assert run.phases[0] == "queued"
        assert run.phases[-1] == "completed"
        assert set(run.phases) >= {"queued", "leased", "running", "completed"}

    def test_breakdown_sums_span_ends(self, run):
        assert run.breakdown is not None
        assert {"job", "queue.wait", "execute"} <= set(run.breakdown)


class TestEventStream:
    def test_sse_resumes_from_since(self, run):
        seqs = [e["seq"] for e in run.events]
        assert seqs == sorted(seqs)
        cursor = seqs[len(seqs) // 2]
        # (Collected while the server was live; resume semantics are on
        # the ring buffer itself.)
        later = [e for e in run.events if e["seq"] > cursor]
        assert later and later[0]["seq"] > cursor

    def test_disk_log_and_stream_agree(self, run):
        streamed = {(e["source"], e["seq"]) for e in run.events}
        on_disk = {(e["source"], e["seq"]) for e in run.disk_events}
        # The stream was read before shutdown; everything it served must
        # exist in the lossless on-disk record.
        assert streamed <= on_disk


class TestMetricsShapes:
    #: The /metrics JSON contract: these exact keys, and no others (fleet
    #: totals are the sum of each replica's /metrics, not a section).
    LEGACY_TOP_KEYS = {
        "schema", "version", "started_at", "uptime_seconds", "queue",
        "jobs", "points", "result_cache", "trace_cache", "engine",
        "job_store", "storage", "replica",
    }
    LEGACY_POINT_KEYS = {
        "requested", "unique", "completed", "executed", "from_cache",
        "shared_inflight",
        "per_minute",
    }

    def test_legacy_json_keys_are_intact(self, run):
        assert set(run.metrics) == self.LEGACY_TOP_KEYS
        assert self.LEGACY_POINT_KEYS <= set(run.metrics["points"])
        assert set(run.metrics["queue"]) >= {
            "depth", "max_depth", "rejected_overloaded",
        }
        assert set(run.metrics["replica"]) >= {
            "id", "lease_ttl", "held_leases", "resumed_jobs",
            "adopted_jobs", "stolen_jobs",
        }

    def test_lifetime_rate_rides_alongside_the_window_rate(self, run):
        points = run.metrics["points"]
        assert "per_minute_lifetime" in points
        assert isinstance(points["per_minute"], float)
        assert points["completed"] >= 2

    def test_prometheus_scrape_passes_the_validating_parser(self, run):
        samples = parse_prometheus(run.prometheus)
        names = set(samples)
        assert "repro_points_completed_total" in names
        assert "repro_job_execute_seconds" in names
        completed = samples["repro_points_completed_total"][0]
        assert completed.value == run.metrics["points"]["completed"]
        assert dict(completed.labels)["replica"] == \
            run.metrics["replica"]["id"]


class TestDegradation:
    def test_events_endpoint_404s_without_a_bus(self):
        app = ServiceApp(cache_dir=None, jobs=1)  # no cache dir: no bus
        server = build_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        app.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}", timeout=10.0
            )
            with pytest.raises(ServiceError) as info:
                list(client.events(since=0, stop_on_idle=True))
            assert info.value.code == "events_unavailable"
            # The breakdown helper degrades to None, never raises.
            assert client.job_span_breakdown("nope") is None
        finally:
            server.shutdown()
            server.server_close()
            app.stop()

    def test_bad_since_is_a_structured_400(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        server = build_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        app.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}", timeout=10.0
            )
            with pytest.raises(ServiceError) as info:
                client._request("GET", "/events?since=banana", raw=True)
            assert info.value.status == 400
        finally:
            server.shutdown()
            server.server_close()
            app.stop()
