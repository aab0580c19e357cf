"""One registry snapshot behind ``/metrics`` and the Prometheus scrape.

Counter owners (the result and trace caches, their segment-log stores,
the job store, the queue and the leases) are registered once as
collectors on the service's :class:`MetricsRegistry`.  A scrape reads
one snapshot of them and creates no instruments, and every collected
value reads the same in the JSON rendering and in the exposition.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import parse, render, sanitize_name
from repro.service.app import ServiceApp
from repro.service.jobs import STATES

FIGURE6 = {
    "figure": "figure6",
    "settings": {"instructions": 300, "benchmarks": ["m88ksim", "swim"]},
}

#: Every ``# TYPE`` line a cache-dir service exposes after one figure6 job.
CACHE_DIR_TYPES = [
    "repro_engine_busy_seconds_total counter",
    "repro_engine_cached_total counter",
    "repro_engine_calls_total counter",
    "repro_engine_executed_total counter",
    "repro_engine_remote_inflight_total counter",
    "repro_engine_remote_reclaimed_total counter",
    "repro_engine_requested_total counter",
    "repro_engine_shared_inflight_total counter",
    "repro_engine_traces_recorded_total counter",
    "repro_engine_traces_reused_total counter",
    "repro_engine_unique_total counter",
    "repro_jobs_adopted_total counter",
    "repro_jobs_deadline_failures_total counter",
    "repro_jobs_poisoned_total counter",
    "repro_jobs_resumed_total counter",
    "repro_jobs_stolen_total counter",
    "repro_points_completed_total counter",
    "repro_points_executed_total counter",
    "repro_points_from_cache_total counter",
    "repro_points_remote_inflight_total counter",
    "repro_points_remote_reclaimed_total counter",
    "repro_points_requested_total counter",
    "repro_points_shared_inflight_total counter",
    "repro_points_unique_total counter",
    "repro_queue_rejected_overloaded_total counter",
    "repro_job_store_quarantined gauge",
    "repro_job_store_save_errors gauge",
    "repro_jobs_state_completed gauge",
    "repro_jobs_state_failed gauge",
    "repro_jobs_state_queued gauge",
    "repro_jobs_state_running gauge",
    "repro_points_per_minute gauge",
    "repro_queue_depth gauge",
    "repro_replica_held_leases gauge",
    "repro_result_cache_disk_hits gauge",
    "repro_result_cache_entries gauge",
    "repro_result_cache_memory_hits gauge",
    "repro_result_cache_misses gauge",
    "repro_result_cache_rejected gauge",
    "repro_result_cache_stores gauge",
    "repro_storage_results_claims gauge",
    "repro_storage_results_compactions gauge",
    "repro_storage_results_dead_bytes gauge",
    "repro_storage_results_entries gauge",
    "repro_storage_results_evictions gauge",
    "repro_storage_results_expired_dropped gauge",
    "repro_storage_results_live_data_bytes gauge",
    "repro_storage_results_read_only gauge",
    "repro_storage_results_rebuilds gauge",
    "repro_storage_results_segment_files gauge",
    "repro_storage_results_torn_tails gauge",
    "repro_storage_results_write_errors gauge",
    "repro_storage_traces_claims gauge",
    "repro_storage_traces_compactions gauge",
    "repro_storage_traces_dead_bytes gauge",
    "repro_storage_traces_entries gauge",
    "repro_storage_traces_evictions gauge",
    "repro_storage_traces_expired_dropped gauge",
    "repro_storage_traces_live_data_bytes gauge",
    "repro_storage_traces_read_only gauge",
    "repro_storage_traces_rebuilds gauge",
    "repro_storage_traces_segment_files gauge",
    "repro_storage_traces_torn_tails gauge",
    "repro_storage_traces_write_errors gauge",
    "repro_trace_cache_disk_hits gauge",
    "repro_trace_cache_entries gauge",
    "repro_trace_cache_memory_hits gauge",
    "repro_trace_cache_misses gauge",
    "repro_trace_cache_rejected gauge",
    "repro_trace_cache_stores gauge",
    "repro_uptime_seconds gauge",
    "repro_job_execute_seconds histogram",
    "repro_point_simulate_seconds histogram",
    "repro_storage_append_seconds histogram",
    "repro_trace_record_seconds histogram",
]

#: A memory-only service has no segment-log stores: no storage families.
MEMORY_TYPES = [line for line in CACHE_DIR_TYPES if "_storage_" not in line]


def _run_job(app: ServiceApp) -> None:
    job = app.submit(dict(FIGURE6))
    deadline = time.monotonic() + 120.0
    while not app.get_job(job.id).terminal:
        assert time.monotonic() < deadline, "figure6 job did not finish"
        time.sleep(0.02)
    assert app.get_job(job.id).state == "completed"


def _type_lines(text: str) -> list:
    return [line[len("# TYPE ") :] for line in text.splitlines() if line.startswith("# TYPE ")]


def _instrument_names(registry: MetricsRegistry) -> tuple:
    return tuple(
        sorted(instrument.name for instrument in instruments)
        for instruments in (registry.counters(), registry.histograms())
    )


class _Run:
    """What a cache-dir service served around a cold and a warm job."""


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    app = ServiceApp(cache_dir=str(tmp_path_factory.mktemp("collectors")), jobs=1)
    app.start()
    captured = _Run()
    try:
        _run_job(app)
        registry = app.telemetry.registry
        captured.instruments_before = _instrument_names(registry)
        captured.first_scrape = app.prometheus_text()
        captured.instruments_after = _instrument_names(registry)
        _run_job(app)  # warm resubmit: every point is a cache hit
        captured.metrics = app.metrics()
        captured.scrape = app.prometheus_text()
    finally:
        app.stop()
    return captured


class TestRegistryCollectors:
    def test_each_collector_is_called_once_per_snapshot(self):
        registry = MetricsRegistry()
        calls = []

        def owner():
            calls.append(1)
            return {"hits": 3, "misses": 1}

        registry.register_collector(owner, "cache")
        assert registry.collect() == {"cache.hits": 3, "cache.misses": 1}
        assert len(calls) == 1
        render(registry)
        assert len(calls) == 2

    def test_collected_values_render_as_sorted_helpless_gauges(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"c": 3, "a": 1})
        registry.register_collector(lambda: {"b": 2}, "x")
        text = render(registry, replica="r1")
        assert _type_lines(text) == ["repro_a gauge", "repro_c gauge", "repro_x_b gauge"]
        assert "# HELP" not in text
        samples = parse(text)
        assert samples["repro_c"][0].value == 3
        assert samples["repro_x_b"][0].value == 2


class TestScrape:
    def test_a_scrape_creates_no_instruments(self, run):
        assert run.instruments_after == run.instruments_before

    def test_type_lines_after_one_job_with_a_cache_dir(self, run):
        types = _type_lines(run.first_scrape)
        assert types == CACHE_DIR_TYPES
        kinds = [line.split()[1] for line in types]
        counts = {kind: kinds.count(kind) for kind in ("counter", "gauge", "histogram")}
        assert counts == {"counter": 25, "gauge": 46, "histogram": 4}

    def test_type_lines_after_one_job_memory_only(self):
        app = ServiceApp(cache_dir=None, jobs=1)
        app.start()
        try:
            _run_job(app)
            text = app.prometheus_text()
        finally:
            app.stop()
        assert _type_lines(text) == MEMORY_TYPES
        assert len(MEMORY_TYPES) == 50


class TestOneSnapshotTwoRenderings:
    FAMILIES = ("result_cache", "trace_cache", "storage.results", "storage.traces", "job_store")

    def _json_family(self, metrics: dict, family: str) -> dict:
        if family.startswith("storage."):
            values = metrics["storage"][family.split(".", 1)[1]]
        else:
            values = metrics[family]
        return {
            key: value for key, value in values.items() if key not in ("hit_rate", "persistent")
        }

    def test_the_warm_run_was_served_from_the_caches(self, run):
        cache = run.metrics["result_cache"]
        assert cache["memory_hits"] + cache["disk_hits"] > 0
        assert run.metrics["points"]["from_cache"] > 0

    def test_every_collected_value_matches_its_sample(self, run):
        samples = {name: family[0].value for name, family in parse(run.scrape).items() if family}
        compared = 0
        for family in self.FAMILIES:
            values = self._json_family(run.metrics, family)
            assert values, family
            for key, value in values.items():
                assert samples[sanitize_name(f"{family}.{key}")] == value, (family, key)
                compared += 1
        # 6 counters per cache, 12 stats per store, 2 job-store counts.
        assert compared == 6 + 6 + 12 + 12 + 2
        assert samples["repro_queue_depth"] == run.metrics["queue"]["depth"]
        for state in STATES:
            assert samples[f"repro_jobs_state_{state}"] == run.metrics["jobs"][state]
        assert run.metrics["jobs"]["completed"] == 2
