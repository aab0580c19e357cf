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

import collections
import dataclasses
import gzip
import json
import os
import pickle
import sys
import threading
import zlib

import pytest

from repro.errors import SimulationError
from repro.experiments import figure6, scheduler
from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    fetch_slack,
    run_simulation_point,
    shutdown_pool,
)
from repro.experiments.store import ResultStore
from repro.isa.instruction import DynamicInstruction, fp_reg, int_reg
from repro.isa.opcodes import OpClass
from repro.obs.events import EventBus, EventLog
from repro.obs.telemetry import Telemetry
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.pipeline.stats import SimulationStats
from repro.sampling import parse_sampling
from repro.storage import open_database
from repro.trace import (
    TRACE_SCHEMA_VERSION,
    DecodedTrace,
    TraceReplayer,
    TraceStore,
    record_trace,
    replay_simulate,
    schema,
    trace_key,
)
from repro.trace.store import TRACE_MEMORY_ENTRIES
from repro.validate.differential import validation_matrix
from repro.validate.observer import CommitObserver
from repro.workloads.kernels import KERNELS, kernel_workload
from repro.workloads.profiles import all_profiles, get_profile
from repro.workloads.synthetic import SyntheticWorkload

N = 2000


def _stream(benchmark: str, count: int):
    return SyntheticWorkload(get_profile(benchmark)).instructions(count)


def _workload_id(benchmark: str, count: int) -> dict:
    return {"kind": "synthetic-profile", "benchmark": benchmark,
            "instructions": count}


def _snapshot(trace: DecodedTrace):
    """Everything a trace holds, each value with its type, so ``True``
    against ``1`` or ``None`` against ``0`` tells apart."""
    names = [field.name for field in dataclasses.fields(DynamicInstruction)]
    return (
        trace.name, trace.key, trace.workload, trace.frontend,
        [[(name, type(getattr(inst, name)), getattr(inst, name)) for name in names]
         for inst in trace.instructions],
        [(type(event), [(type(value), value) for value in event])
         for event in trace.events],
    )


def _rewrite_header(blob: bytes, **changes) -> bytes:
    """``blob`` with header fields replaced, columns untouched."""
    raw = zlib.decompress(blob)
    size = int.from_bytes(raw[:4], "little")
    header = json.loads(raw[4:4 + size])
    header.update(changes)
    encoded = json.dumps(header).encode("utf-8")
    return zlib.compress(len(encoded).to_bytes(4, "little") + encoded + raw[4 + size:])


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
        """Replayers share the trace's read-only groups; back-to-back runs
        must not contaminate each other."""
        factory = validation_matrix()["monolithic-1c"]
        config = ProcessorConfig(max_instructions=N)
        first = replay_simulate(gcc_trace, factory, config)
        second = replay_simulate(gcc_trace, factory, config)
        assert first.to_dict() == second.to_dict()


class TestConcurrentReplay:
    """Replays of one trace share no state, so they may run at once: the
    sweep service's executor threads replay one in-memory trace."""

    def test_each_replayer_builds_its_own_records(self, gcc_trace):
        event = next(index for index, (count, *_) in enumerate(gcc_trace.events)
                     if count)
        stats = SimulationStats()
        first, second = [], []
        TraceReplayer(gcc_trace, start_event=event).fetch_into(first, stats, 5)
        TraceReplayer(gcc_trace, start_event=event).fetch_into(second, stats, 9)
        assert first and len(first) == len(second)
        assert [entry.fetch_cycle for entry in first] == [5] * len(first)
        assert [entry.fetch_cycle for entry in second] == [9] * len(second)
        assert not {id(entry) for entry in first} & {id(entry) for entry in second}
        assert [entry.instruction for entry in first] == \
            [entry.instruction for entry in second]

    def test_concurrent_replays_equal_sequential_ones(self, gcc_trace):
        matrix = validation_matrix()
        names = ["monolithic-1c", "monolithic-2c-1-bypass", "banked-4x2r2w",
                 "rfc-non-bypass-ported"]
        config = ProcessorConfig(max_instructions=N)
        expected = {
            name: replay_simulate(gcc_trace, matrix[name], config).to_dict()
            for name in names
        }
        results, errors = [], []

        def replay_all(order):
            try:
                for name in order:
                    stats = replay_simulate(gcc_trace, matrix[name], config)
                    results.append((name, stats.to_dict()))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=replay_all, args=(names[i:] + names[:i],))
            for i in range(len(names))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == len(names) ** 2
        for name, stats in results:
            assert stats == expected[name], name


class TestTraceStore:
    def test_round_trip_through_disk(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        fresh = TraceStore(str(tmp_path))
        loaded = fresh.get(gcc_trace.key)
        assert loaded is not None
        assert _snapshot(loaded) == _snapshot(gcc_trace)
        factory = validation_matrix()["rfc-always-demand"]
        config = ProcessorConfig(max_instructions=N)
        assert (replay_simulate(loaded, factory, config).to_dict()
                == replay_simulate(gcc_trace, factory, config).to_dict())

    def test_v1_gzip_json_record_is_a_miss(self, gcc_trace, tmp_path):
        """A record of the row-wise gzip-JSON format (schema 1) under the
        current key is a counted miss, never migrated."""
        rows = [
            [inst.seq, list(OpClass).index(inst.op_class),
             -1 if inst.dest is None else inst.dest._hash,
             [source._hash for source in inst.sources], inst.latency,
             inst.pc, int(inst.is_branch) | int(inst.branch_taken) << 1,
             inst.branch_target, inst.mem_address, inst.mnemonic]
            for inst in gcc_trace.instructions
        ]
        payload = {"schema": 1, "name": gcc_trace.name, "key": gcc_trace.key,
                   "workload": gcc_trace.workload,
                   "frontend": gcc_trace.frontend, "instructions": rows,
                   "events": [list(event) for event in gcc_trace.events]}
        store = TraceStore(str(tmp_path))
        store._disk.put(gcc_trace.key, gzip.compress(
            json.dumps(payload).encode("utf-8"), mtime=0))
        fresh = TraceStore(str(tmp_path))
        assert fresh.get(gcc_trace.key) is None
        assert fresh.counters()["rejected"] == 1

    def test_memory_tier_returns_same_object(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        assert store.get(gcc_trace.key) is gcc_trace
        assert store.counters()["memory_hits"] == 1

    def test_schema_mismatch_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        blob = _rewrite_header(gcc_trace.to_bytes(),
                               schema=TRACE_SCHEMA_VERSION + 1)
        assert DecodedTrace.from_bytes(_rewrite_header(blob, schema=TRACE_SCHEMA_VERSION))
        store._disk.put(gcc_trace.key, blob)
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_other_byte_order_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        other = "little" if sys.byteorder == "big" else "big"
        blob = _rewrite_header(gcc_trace.to_bytes(), byteorder=other)
        with pytest.raises(SimulationError, match="byte order"):
            DecodedTrace.from_bytes(blob)
        store._disk.put(gcc_trace.key, blob)
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_truncated_blob_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        raw = store._disk.get(gcc_trace.key)
        store._disk.put(gcc_trace.key, raw[: len(raw) // 2])
        fresh = TraceStore(str(tmp_path))
        assert fresh.get(gcc_trace.key) is None
        assert fresh.counters()["rejected"] == 1

    def test_truncated_column_is_a_miss(self, gcc_trace, tmp_path):
        """A blob that decompresses but lacks the tail of its columns."""
        raw = zlib.decompress(gcc_trace.to_bytes())
        store = TraceStore(str(tmp_path))
        store._disk.put(gcc_trace.key, zlib.compress(raw[:-3]))
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

    def test_malformed_payload_rejected(self, gcc_trace):
        blob = gcc_trace.to_bytes()
        for bad in (b"", b"not zlib", zlib.compress(b"\x00"),
                    zlib.compress(b"\xff\xff\xff\xff{}"),
                    _rewrite_header(blob, lengths=[1, 2, 3]),
                    _rewrite_header(blob, mnemonics=[])):
            with pytest.raises(SimulationError):
                DecodedTrace.from_bytes(bad)

    def test_event_coverage_validated(self, gcc_trace):
        short = dataclasses.replace(gcc_trace, events=gcc_trace.events[:-1])
        with pytest.raises(SimulationError, match="cover"):
            DecodedTrace.from_bytes(short.to_bytes())

    def test_memory_only_store(self, gcc_trace):
        store = TraceStore(None)
        store.put(gcc_trace)
        assert store.get(gcc_trace.key) is gcc_trace

    def test_memory_tier_is_bounded_and_least_recently_used(self, tmp_path):
        """More traces than the memory cap: the tier never outgrows it, a
        trace read (``get`` or ``peek``) between inserts survives, and an
        evicted one still loads from disk."""
        traces = [
            record_trace("gcc", _stream("gcc", count),
                         ProcessorConfig(max_instructions=count),
                         _workload_id("gcc", count))
            for count in range(40, 40 + TRACE_MEMORY_ENTRIES + 3)
        ]
        store = TraceStore(str(tmp_path))
        for trace in traces[:-1]:
            store.put(trace)
            assert store.get(traces[0].key) is traces[0]
            assert store.counters()["entries"] <= TRACE_MEMORY_ENTRIES
        assert store.counters()["entries"] == TRACE_MEMORY_ENTRIES
        # Memory holds traces[0] and the newest inserts; refresh the
        # coldest of those, so the next insert evicts the one after it.
        coldest, next_coldest = traces[-TRACE_MEMORY_ENTRIES:][:2]
        assert store.peek(coldest.key) is coldest
        store.put(traces[-1])
        assert store.counters()["entries"] == TRACE_MEMORY_ENTRIES
        assert store.get(coldest.key) is coldest
        assert store.counters()["disk_hits"] == 0
        loaded = store.get(next_coldest.key)
        assert loaded is not next_coldest
        assert _snapshot(loaded) == _snapshot(next_coldest)
        assert store.counters()["disk_hits"] == 1

    def test_memory_only_store_never_evicts(self):
        """Without a disk tier a dropped trace would have to be recorded
        again, so a memory-only store keeps every trace past the cap."""
        traces = [
            record_trace("gcc", _stream("gcc", count),
                         ProcessorConfig(max_instructions=count),
                         _workload_id("gcc", count))
            for count in range(40, 40 + TRACE_MEMORY_ENTRIES + 1)
        ]
        store = TraceStore(None)
        for trace in traces:
            store.put(trace)
        assert store.counters()["entries"] == len(traces)
        assert all(store.get(trace.key) is trace for trace in traces)


ROUND_TRIP_N = 600


def _profile_trace(benchmark: str) -> DecodedTrace:
    return record_trace(benchmark, _stream(benchmark, ROUND_TRIP_N),
                        ProcessorConfig(max_instructions=ROUND_TRIP_N),
                        _workload_id(benchmark, ROUND_TRIP_N))


def _kernel_trace(name: str) -> DecodedTrace:
    stream = list(kernel_workload(name, max_instructions=ROUND_TRIP_N))
    return record_trace(name, stream,
                        ProcessorConfig(max_instructions=len(stream)),
                        {"kind": "kernel", "kernel": name,
                         "instructions": ROUND_TRIP_N})


class TestTraceBlob:
    """``DecodedTrace.to_bytes``/``from_bytes`` lose nothing and share
    one blob per trace."""

    @pytest.mark.parametrize("profile", sorted(all_profiles()))
    def test_round_trip_synthetic_profiles(self, profile):
        trace = _profile_trace(profile)
        assert _snapshot(DecodedTrace.from_bytes(trace.to_bytes())) == _snapshot(trace)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_round_trip_isa_kernels(self, kernel):
        trace = _kernel_trace(kernel)
        assert _snapshot(DecodedTrace.from_bytes(trace.to_bytes())) == _snapshot(trace)

    def test_round_trip_keeps_values_the_constructor_derived(self):
        """``mem_address`` ``None`` and 0, default and explicit latency,
        both branch flags and mnemonics survive as stored."""
        instructions = [
            DynamicInstruction(seq=0, op_class=OpClass.LOAD, dest=int_reg(1),
                               sources=(int_reg(2),)),
            DynamicInstruction(seq=1, op_class=OpClass.STORE,
                               sources=(int_reg(1), fp_reg(31)),
                               mem_address=(1 << 40) + 8, mnemonic="st"),
            DynamicInstruction(seq=2, op_class=OpClass.INT_ALU, dest=fp_reg(0),
                               latency=7, mnemonic="weird"),
            DynamicInstruction(seq=3, op_class=OpClass.BRANCH,
                               sources=(int_reg(1), fp_reg(31)),
                               branch_taken=True, branch_target=4096, pc=64),
            DynamicInstruction(seq=4, op_class=OpClass.INT_ALU,
                               is_branch=True, branch_target=8),
        ]
        assert instructions[0].mem_address == 0
        assert instructions[2].mem_address is None
        trace = DecodedTrace(name="edge", key="k" * 64, workload={"kind": "test"},
                             frontend={}, instructions=instructions,
                             events=[(3, 0, 1, 0, 0), (2, 5, 0, 1, 3)])
        decoded = DecodedTrace.from_bytes(trace.to_bytes())
        assert _snapshot(decoded) == _snapshot(trace)
        # Equal source lists decode to one shared tuple.
        assert decoded.instructions[1].sources is decoded.instructions[3].sources

    def test_blob_is_encoded_once_and_kept(self, monkeypatch):
        trace = _profile_trace("swim")
        compress = zlib.compress
        calls = []
        monkeypatch.setattr(schema.zlib, "compress",
                            lambda *args: calls.append(1) or compress(*args))
        blob = trace.to_bytes()
        assert trace.to_bytes() is blob
        decoded = DecodedTrace.from_bytes(blob)
        assert decoded.to_bytes() is blob
        assert len(calls) == 1

    def test_trace_pickles_as_its_kept_blob(self, monkeypatch):
        """A trace crosses a process boundary by pickle, as its blob: one
        that holds its blob pickles without encoding again."""
        trace = _profile_trace("swim")
        blob = trace.to_bytes()

        def compress(*args):
            raise AssertionError("a trace with a blob was encoded again")

        monkeypatch.setattr(schema.zlib, "compress", compress)
        restored = pickle.loads(pickle.dumps(trace))
        assert _snapshot(restored) == _snapshot(trace)
        assert restored.to_bytes() == blob

    @pytest.mark.parametrize("profile", ["gcc", "swim"])
    def test_disk_loaded_trace_replays_every_figure6_architecture(
            self, profile, tmp_path):
        benchmark = profile
        trace = record_trace(benchmark, _stream(benchmark, N),
                             ProcessorConfig(max_instructions=N),
                             _workload_id(benchmark, N))
        TraceStore(str(tmp_path)).put(trace)
        loaded = TraceStore(str(tmp_path)).get(trace.key)
        assert loaded is not None and loaded is not trace
        config = ProcessorConfig(max_instructions=N)
        for name, factory, _ in figure6._architectures():
            live = simulate(_stream(benchmark, N), factory, config,
                            benchmark_name=benchmark)
            assert (replay_simulate(loaded, factory, config,
                                    benchmark_name=benchmark).to_dict()
                    == live.to_dict()), name


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

        # Results live in the results table, traces in the traces table;
        # a fresh ResultStore must not mistake the trace for a result and
        # a fresh TraceStore must not see the result payload.
        database = open_database(cache_dir)
        for table in ("results", "traces"):
            assert database.query(f"SELECT count(*) FROM {table}") == [(1,)], table

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

    def test_lone_chunk_replays_an_engine_held_trace_inline(self, tmp_path):
        """Two groups record in workers, which return their traces to
        the engine; the single remaining point then runs in-process on
        the trace the engine holds."""
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

    def test_engine_persists_traces_and_emits_every_span(self, tmp_path):
        """With workers, the engine process still puts every recorded
        trace into its own store and emits every point's and trace's
        span onto the live bus, under the bound execute span."""
        config = ProcessorConfig(max_instructions=500)
        matrix = list(validation_matrix().items())[:3]
        points = [
            SimulationPoint(benchmark=benchmark, factory=factory,
                            architecture=name, config=config)
            for benchmark in ("gcc", "swim")
            for name, factory in matrix
        ]
        events_dir = str(tmp_path / "events")
        bus = EventBus()
        telemetry = Telemetry(log=EventLog(events_dir, "engine"), bus=bus)
        engine = SweepEngine(store=ResultStore(cache_dir=str(tmp_path / "cache")),
                             jobs=2, telemetry=telemetry)
        try:
            with telemetry.span("execute") as execute:
                summary = engine.execute(points)
        finally:
            shutdown_pool()
            telemetry.close()
        assert (summary["executed"], summary["traces_recorded"]) == (6, 2)
        counters = engine.trace_store.counters()
        assert counters["stores"] == summary["traces_recorded"]
        assert counters["entries"] == summary["traces_recorded"]
        ends = [event for event in bus.since(0)
                if event["kind"] == "span_end"
                and event["trace_id"] == execute.trace_id]
        spans = [event["span"] for event in ends]
        assert spans.count("point.simulate") == summary["executed"]
        assert spans.count("trace.record") == summary["traces_recorded"]
        assert not [name for name in os.listdir(events_dir)
                    if name.startswith("worker")]

    @staticmethod
    def _mixed_run(jobs, tmp_path):
        """Stats per store key, ``execute`` counters and span counts of
        one engine at ``jobs``: a call that stores a gcc trace, then one
        batch holding every kind of work the engine does."""
        matrix = list(validation_matrix().items())
        slack = fetch_slack(ProcessorConfig())

        def point(benchmark, architecture, budget=300, warmup=0,
                  sampling=None):
            name, factory = matrix[architecture]
            return SimulationPoint(
                benchmark=benchmark, factory=factory, architecture=name,
                config=ProcessorConfig(max_instructions=budget),
                warmup_instructions=warmup, sampling=sampling)

        stored = [point("gcc", 0, budget=600)]
        batch = [
            point("swim", 0),  # records its trace, harvested
            point("swim", 1),  # replays that trace
            point("swim", 1, sampling=parse_sampling("100:50:50")),
            point("gcc", 1, budget=600),  # the stored trace, reused
            point("gcc", 1, budget=200, warmup=slack),  # covered by it
            point("m88ksim", 0, warmup=slack),  # folded into the next
            point("m88ksim", 1, budget=700),  # records, harvested
        ]
        bus = EventBus()
        telemetry = Telemetry(log=EventLog(str(tmp_path / f"events-{jobs}"),
                                           "engine"), bus=bus)
        engine = SweepEngine(
            store=ResultStore(cache_dir=str(tmp_path / f"cache-{jobs}")),
            jobs=jobs, telemetry=telemetry)
        try:
            counters = [engine.execute(points) for points in (stored, batch)]
        finally:
            shutdown_pool()
            telemetry.close()
        for summary in counters:
            del summary["elapsed_seconds"]
        spans = collections.Counter(
            (event["span"], event.get("strategy"))
            for event in bus.since(0) if event["kind"] == "span_end")
        stats = {point.store_key(): engine.store.get(point.store_key()).to_dict()
                 for point in stored + batch}
        return stats, counters, spans, batch

    def test_mixed_batch_runs_alike_at_one_and_two_jobs(self, tmp_path):
        """``jobs`` changes who runs the engine's tasks, never what they
        produce: results, counters and spans are equal inline and in
        workers."""
        stats, counters, spans, batch = self._mixed_run(1, tmp_path)
        assert (counters[1]["traces_recorded"],
                counters[1]["traces_reused"]) == (2, 3)  # swim, m88ksim
        assert spans[("point.simulate", "harvest")] == 3
        assert spans[("point.simulate", "replay")] == 5
        assert self._mixed_run(2, tmp_path)[:3] == (stats, counters, spans)
        for point in batch:
            assert (stats[point.store_key()]
                    == run_simulation_point(point).to_dict()), point

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_encodes_no_trace_a_worker_recorded_or_disk_held(
            self, monkeypatch, tmp_path, jobs):
        """At ``--jobs 2`` the engine stores the blob each record worker
        returned and ships that same blob to replay workers: it never
        encodes a trace itself, neither on a repeated call reusing the
        group nor for a trace a fresh engine loaded from disk.  At
        ``--jobs 1`` nothing crosses a process boundary: the engine
        encodes and decodes traces only in its trace store, to put them
        on disk and to load them from it."""
        codec = []  # (zlib call, whether the trace store made it)
        in_store = []
        compress, decompress = zlib.compress, zlib.decompress
        monkeypatch.setattr(
            schema.zlib, "compress",
            lambda *args: codec.append(("compress", bool(in_store)))
            or compress(*args))
        monkeypatch.setattr(
            schema.zlib, "decompress",
            lambda *args: codec.append(("decompress", bool(in_store)))
            or decompress(*args))
        for name in ("_encode", "_decode"):
            def in_trace_store(store, *args, _method=getattr(TraceStore, name)):
                in_store.append(1)
                try:
                    return _method(store, *args)
                finally:
                    in_store.pop()

            monkeypatch.setattr(TraceStore, name, in_trace_store)
        config = ProcessorConfig(max_instructions=500)
        matrix = list(validation_matrix().items())

        def points(architectures):
            return [
                SimulationPoint(benchmark=benchmark, factory=factory,
                                architecture=name, config=config)
                for benchmark in ("gcc", "swim")
                for name, factory in architectures
            ]

        cache_dir = str(tmp_path)
        engine = SweepEngine(store=ResultStore(cache_dir=cache_dir), jobs=jobs)
        try:
            first = engine.execute(points(matrix[:3]))
            second = engine.execute(points(matrix[3:6]))
            fresh = SweepEngine(store=ResultStore(cache_dir=cache_dir), jobs=jobs)
            third = fresh.execute(points(matrix[6:9]))
        finally:
            shutdown_pool()
        assert (first["traces_recorded"], second["traces_reused"],
                third["traces_reused"]) == (2, 2, 2)
        if jobs == 1:
            assert [call for call, by_store in codec if not by_store] == []
            assert codec.count(("compress", True)) == 2  # the two puts
            assert ("decompress", True) in codec  # the fresh engine's loads
        else:
            assert [call for call, _ in codec if call == "compress"] == []
        for point in points(matrix[:1]):
            key = point.trace_key()
            assert (engine.trace_store._disk.get(key)
                    == engine.trace_store.get(key).to_bytes())
        for point in points(matrix[:9]):
            assert (fresh.store.get(point.store_key()).to_dict()
                    == run_simulation_point(point).to_dict()), point.architecture

    def test_inline_work_runs_inside_live_spans(self, monkeypatch, tmp_path):
        """At jobs=1 the engine runs every point inside its own span: the
        span is open on the bus while the point runs, and a point that
        raises ends its span with the error."""
        points = self._points()[:3]
        bus = EventBus()
        telemetry = Telemetry(log=EventLog(str(tmp_path), "engine"), bus=bus)
        engine = SweepEngine(store=ResultStore(), jobs=1, telemetry=telemetry)
        open_during_run = []

        def run(point, trace=None):
            events = bus.since(0)
            started = {event["span_id"] for event in events
                       if event["kind"] == "span_start"
                       and event["span"] == "point.simulate"}
            ended = {event["span_id"] for event in events
                     if event["kind"] == "span_end"}
            open_during_run.append(len(started - ended))
            if point is points[-1]:
                raise RuntimeError("injected")
            return run_simulation_point(point, trace)

        monkeypatch.setattr(scheduler, "run_simulation_point", run)
        try:
            with pytest.raises(RuntimeError, match="injected"):
                engine.execute(points)
        finally:
            telemetry.close()
        # The first point was harvested from the recording run; the two
        # replays each ran inside an open span.
        assert open_during_run == [1, 1]
        ends = [event for event in bus.since(0)
                if event["kind"] == "span_end"
                and event["span"] == "point.simulate"]
        assert [event["strategy"] for event in ends] == [
            "harvest", "replay", "replay"]
        assert [event.get("error") for event in ends] == [
            None, None, "RuntimeError"]
