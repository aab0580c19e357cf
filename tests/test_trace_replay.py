"""Trace-once / replay-many: bit-identity, store behaviour, scheduler keys.

The contract of :mod:`repro.trace` is exact: a replayed point must
reproduce the live run's :class:`~repro.pipeline.stats.SimulationStats`
(including ``commit_checksum`` when a commit observer is attached) bit
for bit, for **every** register-file architecture, from one recording.
These tests lock that contract down, together with the trace store's
negative paths and the rule that replay never changes a point's
result-store key.
"""

from __future__ import annotations

import gzip
import io
import json
import os

import pytest

from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    run_simulation_point,
    shutdown_pool,
)
from repro.experiments.store import ResultStore
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.trace import (
    TRACE_SCHEMA_VERSION,
    DecodedTrace,
    TraceStore,
    record_trace,
    replay_simulate,
    trace_key,
)
from repro.trace.store import COMPRESS_LEVEL
from repro.validate.differential import validation_matrix
from repro.validate.observer import CommitObserver
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

N = 2000


def _stream(benchmark: str, count: int):
    return SyntheticWorkload(get_profile(benchmark)).instructions(count)


def _workload_id(benchmark: str, count: int) -> dict:
    return {"kind": "synthetic-profile", "benchmark": benchmark,
            "instructions": count}


@pytest.fixture(scope="module")
def gcc_trace():
    config = ProcessorConfig(max_instructions=N)
    return record_trace("gcc", _stream("gcc", N), config, _workload_id("gcc", N))


class TestReplayBitIdentity:
    @pytest.mark.parametrize("name", sorted(validation_matrix()))
    def test_replay_matches_live_for_every_architecture(self, gcc_trace, name):
        factory = validation_matrix()[name]
        config = ProcessorConfig(max_instructions=N)
        live = simulate(_stream("gcc", N), factory, config, benchmark_name="gcc")
        replayed = replay_simulate(gcc_trace, factory, config, benchmark_name="gcc")
        assert replayed.to_dict() == live.to_dict()

    def test_commit_checksum_matches_live(self, gcc_trace):
        factory = validation_matrix()["rfc-non-bypass"]
        config = ProcessorConfig(max_instructions=N)
        live = simulate(_stream("gcc", N), factory, config,
                        benchmark_name="gcc", commit_observer=CommitObserver())
        replayed = replay_simulate(gcc_trace, factory, config,
                                   benchmark_name="gcc",
                                   commit_observer=CommitObserver())
        assert live.commit_checksum is not None
        assert replayed.commit_checksum == live.commit_checksum
        assert replayed.to_dict() == live.to_dict()

    def test_backend_config_shares_the_trace(self, gcc_trace):
        """Backend fields (register budget) do not enter the trace key;
        a perturbed backend replays bit-identically from the same trace."""
        factory = validation_matrix()["monolithic-2c-full-bypass"]
        config = ProcessorConfig(
            max_instructions=N, num_int_physical=48, num_fp_physical=48
        )
        assert trace_key(_workload_id("gcc", N), config) == gcc_trace.key
        live = simulate(_stream("gcc", N), factory, config, benchmark_name="gcc")
        replayed = replay_simulate(gcc_trace, factory, config, benchmark_name="gcc")
        assert replayed.to_dict() == live.to_dict()

    def test_truncated_commit_budget_with_stream_slack(self):
        """Bench-style runs stop at the commit cap with stream left over;
        the full-stream recording still replays them bit-identically."""
        count = int(N * 1.5)
        config = ProcessorConfig(max_instructions=N)
        trace = record_trace("swim", _stream("swim", count), config,
                             _workload_id("swim", count))
        for name in ("monolithic-1c", "banked-4x2r2w", "rfc-ready"):
            factory = validation_matrix()[name]
            live = simulate(_stream("swim", count), factory, config,
                            benchmark_name="swim")
            replayed = replay_simulate(trace, factory, config,
                                       benchmark_name="swim")
            assert replayed.to_dict() == live.to_dict(), name

    def test_frontend_config_changes_the_key(self):
        config = ProcessorConfig(max_instructions=N)
        narrow = config.with_overrides(fetch_width=4)
        assert (trace_key(_workload_id("gcc", N), config)
                != trace_key(_workload_id("gcc", N), narrow))

    def test_sequential_replays_of_one_trace(self, gcc_trace):
        """Replayers share prebuilt groups; back-to-back runs must not
        contaminate each other."""
        factory = validation_matrix()["monolithic-1c"]
        config = ProcessorConfig(max_instructions=N)
        first = replay_simulate(gcc_trace, factory, config)
        second = replay_simulate(gcc_trace, factory, config)
        assert first.to_dict() == second.to_dict()


class TestTraceStore:
    def test_round_trip_through_disk(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        fresh = TraceStore(str(tmp_path))
        loaded = fresh.get(gcc_trace.key)
        assert loaded is not None
        assert loaded.to_payload() == gcc_trace.to_payload()
        factory = validation_matrix()["rfc-always-demand"]
        config = ProcessorConfig(max_instructions=N)
        assert (replay_simulate(loaded, factory, config).to_dict()
                == replay_simulate(gcc_trace, factory, config).to_dict())

    def test_blobs_use_the_store_level(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        blob = store._disk.get(gcc_trace.key)
        # gzip header XFL byte: 2 marks level 9, 0 the levels between.
        assert blob[8] == 0
        assert COMPRESS_LEVEL == 6

    def test_level9_blobs_still_load(self, gcc_trace, tmp_path):
        """Traces a cache wrote at gzip's default level 9 load unchanged:
        the level only affects writing."""
        store = TraceStore(str(tmp_path))
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
            handle.write(json.dumps(gcc_trace.to_payload()).encode("utf-8"))
        assert buffer.getvalue()[8] == 2
        store._disk.put(gcc_trace.key, buffer.getvalue())
        loaded = TraceStore(str(tmp_path)).get(gcc_trace.key)
        assert loaded is not None
        assert loaded.to_payload() == gcc_trace.to_payload()

    def test_memory_tier_returns_same_object(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        assert store.get(gcc_trace.key) is gcc_trace
        assert store.counters()["memory_hits"] == 1

    @staticmethod
    def _segment_files(trace_dir):
        return [
            os.path.join(root, name)
            for root, _, names in os.walk(trace_dir)
            for name in names
            if name.startswith("seg-") and name.endswith(".log")
        ]

    def test_schema_mismatch_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        payload = gcc_trace.to_payload()
        payload["schema"] = TRACE_SCHEMA_VERSION + 1
        store._disk.put(gcc_trace.key,
                        gzip.compress(json.dumps(payload).encode("utf-8")))
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_corrupt_segment_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        segments = self._segment_files(store.trace_dir)
        assert segments, "trace store wrote no segment files"
        for path in segments:
            with open(path, "wb") as handle:
                handle.write(b"not a segment record at all")
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_truncated_segment_is_a_miss(self, gcc_trace, tmp_path):
        """A torn tail (writer killed mid-append) reads as a miss."""
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        for path in self._segment_files(store.trace_dir):
            with open(path, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(blob[: len(blob) // 2])
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_truncated_gzip_payload_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        raw = store._disk.get(gcc_trace.key)
        store._disk.put(gcc_trace.key, raw[: len(raw) // 2])
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_key_mismatch_is_a_miss(self, gcc_trace, tmp_path):
        """A trace stored under another key must not be served."""
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        wrong_key = "0" * 64
        store._disk.put(wrong_key, store._disk.get(gcc_trace.key))
        fresh = TraceStore(str(tmp_path))
        assert fresh.get(wrong_key) is None
        assert fresh.counters()["misses"] == 1
        assert fresh.get(gcc_trace.key) is not None

    def test_malformed_payload_rejected(self):
        with pytest.raises(Exception):
            DecodedTrace.from_payload({"schema": TRACE_SCHEMA_VERSION})

    def test_event_coverage_validated(self, gcc_trace):
        payload = gcc_trace.to_payload()
        payload["events"] = payload["events"][:-1]
        with pytest.raises(Exception):
            DecodedTrace.from_payload(payload)

    def test_memory_only_store(self, gcc_trace):
        store = TraceStore(None)
        store.put(gcc_trace)
        assert store.get(gcc_trace.key) is gcc_trace


class TestCacheDirCoexistence:
    """One ``--cache-dir`` serves results and traces without collision."""

    def test_result_and_trace_stores_share_a_directory(self, tmp_path):
        cache_dir = str(tmp_path)
        results = ResultStore(cache_dir=cache_dir)
        factory = validation_matrix()["monolithic-1c"]
        config = ProcessorConfig(max_instructions=500)
        point = SimulationPoint(benchmark="gcc", factory=factory,
                                architecture="mono-1c", config=config)
        SweepEngine(store=results).execute([point])

        # Results live in segment logs under results/, traces under
        # traces/; a fresh ResultStore must not mistake the trace for a
        # result and a fresh TraceStore must not see the result payload.
        def segment_files(subdir):
            return [
                os.path.join(root, name)
                for root, _, names in os.walk(os.path.join(cache_dir, subdir))
                for name in names
                if name.startswith("seg-") and name.endswith(".log")
            ]

        assert segment_files("results"), "result segments missing"
        assert segment_files("traces"), "trace segments missing"

        fresh_results = ResultStore(cache_dir=cache_dir)
        assert fresh_results.peek(point.store_key()) is not None
        fresh_traces = TraceStore(cache_dir)
        assert fresh_traces.get(point.trace_key()) is not None
        # A result key can never resolve in the trace store and vice versa.
        assert fresh_traces.get(point.store_key()) is None
        assert fresh_results.peek(point.trace_key()) is None


class TestReplayIsNotAConfigField:
    """Replay is an execution strategy: result keys must not change."""

    def _points(self):
        config = ProcessorConfig(max_instructions=800)
        return [
            SimulationPoint(benchmark="gcc", factory=factory,
                            architecture=name, config=config)
            for name, factory in list(validation_matrix().items())[:4]
        ]

    def test_replayed_and_live_runs_share_result_keys(self, tmp_path):
        cache_dir = str(tmp_path)
        replay_store = ResultStore(cache_dir=cache_dir)
        summary = SweepEngine(store=replay_store).execute(self._points())
        assert summary["executed"] == 4
        assert summary["traces_recorded"] == 1

        # A later run over the same cache-dir must hit every entry, and
        # each entry must be the point's *live* result.
        live_store = ResultStore(cache_dir=cache_dir)
        summary = SweepEngine(store=live_store).execute(self._points())
        assert summary["executed"] == 0
        assert summary["cached"] == 4
        for point in self._points():
            assert (live_store.get(point.store_key()).to_dict()
                    == run_simulation_point(point).to_dict()), point.architecture

    def test_replayed_results_equal_live_results(self):
        replay_store = ResultStore()
        points = self._points()
        SweepEngine(store=replay_store).execute(points)
        for point in points:
            key = point.store_key()
            assert (replay_store.get(key).to_dict()
                    == run_simulation_point(point).to_dict()), point.architecture

    def test_recording_harvest_matches_live(self):
        """The recording run doubles as the first point's result; it must
        equal that point's live run exactly."""
        config = ProcessorConfig(max_instructions=800)
        factory = validation_matrix()["rfc-non-bypass"]
        point = SimulationPoint(benchmark="swim", factory=factory,
                                architecture="rfc", config=config)
        from repro.experiments.scheduler import record_point_trace

        _, harvested = record_point_trace(point)
        assert harvested is not None
        live = run_simulation_point(point)
        assert harvested.to_dict() == live.to_dict()

    def test_parallel_batched_replay_matches_serial(self, tmp_path):
        """The warm-worker path (record task + trace batches) produces the
        same results as the serial path, with traces shipped via disk."""
        points = self._points()
        serial_store = ResultStore()
        SweepEngine(store=serial_store).execute(points)
        parallel_store = ResultStore(cache_dir=str(tmp_path))
        try:
            summary = SweepEngine(store=parallel_store, jobs=2).execute(points)
        finally:
            shutdown_pool()
        assert summary["executed"] == 4
        for point in points:
            key = point.store_key()
            assert (parallel_store.get(key).to_dict()
                    == serial_store.get(key).to_dict()), point.architecture

    def test_occupancy_point_is_not_harvested_but_replays(self):
        config = ProcessorConfig(max_instructions=600, collect_occupancy=True)
        factory = validation_matrix()["monolithic-1c"]
        point = SimulationPoint(benchmark="gcc", factory=factory,
                                architecture="mono", config=config)
        from repro.experiments.scheduler import record_point_trace

        trace, harvested = record_point_trace(point)
        assert harvested is None  # occupancy collection disables the harvest
        live = run_simulation_point(point)
        replayed = run_simulation_point(point, trace)
        assert replayed.to_dict() == live.to_dict()
        assert replayed.occupancy_needed  # the distribution was collected


class TestParallelEngineBookkeeping:
    """Worker processes report back everything the serial path records."""

    def _points(self):
        config = ProcessorConfig(max_instructions=600)
        return [
            SimulationPoint(benchmark="gcc", factory=factory,
                            architecture=name, config=config)
            for name, factory in list(validation_matrix().items())[:6]
        ]

    def test_latency_histograms_count_every_executed_point(self):
        engine = SweepEngine(store=ResultStore(), jobs=2)
        try:
            summary = engine.execute(self._points())
        finally:
            shutdown_pool()
        assert summary["executed"] == 6
        registry = engine.registry
        assert (registry.histogram("point.simulate_seconds").count
                == summary["executed"])
        assert (registry.histogram("trace.record_seconds").count
                == summary["traces_recorded"] == 1)

    def test_in_memory_engine_keeps_worker_recorded_traces(self):
        points = self._points()
        engine = SweepEngine(store=ResultStore(), jobs=2)
        try:
            first = engine.execute(points[:3])
            second = engine.execute(points[3:])
        finally:
            shutdown_pool()
        assert (first["traces_recorded"], first["traces_reused"]) == (1, 0)
        assert (second["traces_recorded"], second["traces_reused"]) == (0, 1)
        assert second["executed"] == 3

    def test_lone_chunk_replays_a_worker_recorded_trace_inline(self, tmp_path):
        """Two groups record in workers (traces persisted to the cache
        dir); the single remaining point then runs in-process and must
        load its trace from disk."""
        config = ProcessorConfig(max_instructions=500)
        matrix = list(validation_matrix().items())
        points = [
            SimulationPoint(benchmark=benchmark, factory=factory,
                            architecture=name, config=config)
            for benchmark, (name, factory) in (
                ("gcc", matrix[0]), ("gcc", matrix[1]), ("swim", matrix[0]),
            )
        ]
        engine = SweepEngine(store=ResultStore(cache_dir=str(tmp_path)), jobs=2)
        try:
            summary = engine.execute(points)
        finally:
            shutdown_pool()
        assert (summary["executed"], summary["traces_recorded"]) == (3, 2)
        for point in points:
            assert (engine.store.get(point.store_key()).to_dict()
                    == run_simulation_point(point).to_dict()), point.benchmark
