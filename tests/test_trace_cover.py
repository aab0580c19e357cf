"""Covering traces: one recorded stream serves every budget it covers.

An exact point whose warm-up spans :func:`~repro.experiments.scheduler.
fetch_slack` never reads its stream past budget + slack, so any trace of
its family at least that long replays it bit-identically
(:meth:`SimulationPoint.reach`).  These tests check the rule itself, on
every paper architecture and the ``point-live`` ones, and the engine's
use of it: which groups a stored or same-call trace covers, which keep
their exact-length trace, and that the keys a cache dir holds serve
covers across processes sharing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.experiments.common import (
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
    architecture_factories,
)
from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    fetch_slack,
    run_simulation_point,
)
from repro.experiments.store import ResultStore
from repro.pipeline.config import ProcessorConfig
from repro.sampling import parse_sampling
from repro.trace import TraceStore, record_trace, trace_key
from repro.trace.schema import family_length
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

B = 600
CONFIG = ProcessorConfig(max_instructions=B)
SLACK = fetch_slack(CONFIG)

#: The paper's architectures plus the three ``point-live`` files.
FACTORIES = {
    **architecture_factories(),
    "mono-1c": SingleBankedFactory(
        latency=1, bypass_levels=1, name="1-cycle single-banked"),
    "banked-4x2r2w": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2),
    "rfc-4r2w-2bus": RegisterFileCacheFactory(
        upper_read_ports=4, upper_write_ports=2, lower_write_ports=4, buses=2),
}


def _point(benchmark="gcc", warmup=SLACK, budget=B, architecture="1-cycle",
           sampling=None) -> SimulationPoint:
    return SimulationPoint(
        benchmark=benchmark,
        factory=FACTORIES[architecture],
        architecture=architecture,
        config=CONFIG.with_overrides(max_instructions=budget),
        warmup_instructions=warmup,
        sampling=sampling,
    )


def _trace(point: SimulationPoint, length: int):
    workload = dict(point.workload_identity(), instructions=length)
    stream = SyntheticWorkload(get_profile(point.benchmark)).instructions(length)
    return record_trace(point.benchmark, stream, point.config, workload)


def _engine(cache_dir=None) -> SweepEngine:
    return SweepEngine(store=ResultStore(cache_dir=cache_dir),
                       trace_store=TraceStore(cache_dir))


class TestSlack:
    def test_table1_slack(self):
        assert SLACK == 162

    def test_slack_follows_the_config(self):
        config = CONFIG.with_overrides(rob_size=64, fetch_buffer_size=8,
                                       fetch_width=4)
        assert fetch_slack(config) == 64 + 8 + 2 * 4 + 2

    def test_reach(self):
        assert _point(warmup=SLACK).reach() == B + SLACK
        assert _point(warmup=2000).reach() == B + SLACK
        assert _point(warmup=SLACK - 1).reach() is None
        assert _point(warmup=0).reach() is None
        sampled = _point(warmup=2000, sampling=parse_sampling("200:50:50"))
        assert sampled.reach() is None

    def test_family_ignores_the_length_only(self):
        assert _point(budget=B).family_key() == _point(budget=2 * B).family_key()
        assert _point().family_key() != _point(benchmark="swim").family_key()
        narrow = SimulationPoint(
            benchmark="gcc", factory=FACTORIES["1-cycle"], architecture="1-cycle",
            config=CONFIG.with_overrides(fetch_width=4), warmup_instructions=SLACK)
        assert narrow.family_key() != _point().family_key()


class TestCoverIsExact:
    """A point with W = slack replays alike from every covering trace,
    and equals its live run."""

    @pytest.mark.parametrize("profile", ["gcc", "swim", "fpppp"])
    def test_every_covering_length_gives_the_live_result(self, profile):
        base = _point(profile)
        own = base.stream_length()
        traces = {length: _trace(base, length)
                  for length in sorted({B + SLACK, own, 2 * own})}
        for architecture in FACTORIES:
            point = _point(profile, architecture=architecture)
            live = run_simulation_point(point).to_dict()
            for length, trace in traces.items():
                replayed = run_simulation_point(point, trace).to_dict()
                assert replayed == live, (architecture, length)


class TestEngineServesCovers:
    def test_stored_longer_trace_serves_a_shorter_budget(self, tmp_path):
        cache_dir = str(tmp_path)
        engine = _engine(cache_dir)
        long_points = [_point(budget=2 * B, architecture=name)
                       for name in ("1-cycle", "register file cache")]
        assert engine.execute(long_points)["traces_recorded"] == 1
        points = [_point(architecture=name) for name in FACTORIES]
        summary = engine.execute(points)
        # "1-cycle" and "mono-1c" label one factory: one simulation.
        assert summary["executed"] == len(points) - 1
        assert summary["traces_recorded"] == 0
        assert summary["traces_reused"] == 1
        for point in points:
            assert (engine.store.get(point.store_key()).to_dict()
                    == run_simulation_point(point).to_dict()), point.architecture

    def test_shortest_covering_trace_is_chosen(self):
        store = TraceStore()
        point = _point()
        for length in (B + SLACK - 1, B + SLACK + 40, 3 * B):
            store.put(_trace(point, length))
        assert len(store.cover(point.family_key(), B + SLACK)) == B + SLACK + 40
        assert store.cover(point.family_key(), 3 * B + 1) is None

    def test_a_point_short_of_the_slack_records_its_own_trace(self):
        engine = _engine()
        engine.execute([_point(budget=2 * B)])
        summary = engine.execute([_point(warmup=SLACK - 1)])
        assert summary["traces_recorded"] == 1
        assert summary["traces_reused"] == 0

    def test_a_sampled_point_records_its_own_trace(self):
        engine = _engine()
        engine.execute([_point(budget=4 * B)])
        sampled = _point(warmup=2 * SLACK, sampling=parse_sampling("200:50:50"))
        summary = engine.execute([sampled])
        assert summary["traces_recorded"] == 1
        assert summary["traces_reused"] == 0
        assert (engine.store.get(sampled.store_key()).to_dict()
                == run_simulation_point(sampled).to_dict())

    def test_one_call_records_each_family_once_at_its_longest(self):
        engine = _engine()
        points = [
            _point(budget=B), _point(budget=B + 50), _point(budget=2 * B),
            _point(benchmark="swim"), _point(benchmark="swim", budget=B + 8),
        ]
        summary = engine.execute(points)
        assert summary["traces_recorded"] == 2
        assert summary["traces_reused"] == 3
        assert sorted(len(trace) for trace in engine.trace_store._memory.values()) \
            == [B + 8 + SLACK, 2 * B + SLACK]
        for point in points:
            assert (engine.store.get(point.store_key()).to_dict()
                    == run_simulation_point(point).to_dict())

    def test_a_group_short_of_the_slack_is_not_folded(self):
        engine = _engine()
        summary = engine.execute([
            _point(budget=2 * B), _point(warmup=SLACK - 1), _point(warmup=0),
        ])
        assert summary["traces_recorded"] == 3
        assert summary["traces_reused"] == 0

    def test_an_evicted_cover_falls_back_to_recording(self, tmp_path):
        cache_dir = str(tmp_path)
        first = _engine(cache_dir)
        first.execute([_point(budget=2 * B)])
        long_key = _point(budget=2 * B).trace_key()
        assert first.trace_store._disk.database.write(
            "DELETE FROM traces WHERE key = ?", (long_key,)) == 1
        engine = _engine(cache_dir)  # a cold memory tier
        point = _point(architecture="register file cache")
        summary = engine.execute([point])
        assert summary["traces_recorded"] == 1
        assert (engine.store.get(point.store_key()).to_dict()
                == run_simulation_point(point).to_dict())


class TestIndexAcrossProcesses:
    def test_a_fresh_process_serves_a_covered_budget(self, tmp_path):
        cache_dir = str(tmp_path)
        _engine(cache_dir).execute([_point(budget=2 * B), _point(benchmark="swim",
                                                                 budget=2 * B)])
        code = textwrap.dedent(f"""
            import json, sys
            sys.path.insert(0, {os.path.dirname(os.path.dirname(repro.__file__))!r})
            from repro.experiments.common import RegisterFileCacheFactory
            from repro.experiments.scheduler import SimulationPoint, SweepEngine
            from repro.experiments.store import ResultStore
            from repro.pipeline.config import ProcessorConfig
            from repro.trace import TraceStore
            points = [
                SimulationPoint(benchmark=benchmark,
                                factory=RegisterFileCacheFactory(),
                                architecture="rfc",
                                config=ProcessorConfig(max_instructions={B + 100}),
                                warmup_instructions=2000)
                for benchmark in ("gcc", "swim")
            ]
            engine = SweepEngine(store=ResultStore(cache_dir={cache_dir!r}),
                                 trace_store=TraceStore({cache_dir!r}))
            summary = engine.execute(points)
            stats = [engine.store.get(p.store_key()).to_dict() for p in points]
            print(json.dumps({{"summary": summary, "stats": stats}}))
        """)
        completed = subprocess.run([sys.executable, "-c", code],
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        answer = json.loads(completed.stdout)
        assert answer["summary"]["traces_recorded"] == 0
        assert answer["summary"]["traces_reused"] == 2
        for benchmark, stats in zip(("gcc", "swim"), answer["stats"]):
            point = SimulationPoint(
                benchmark=benchmark, factory=RegisterFileCacheFactory(),
                architecture="rfc",
                config=ProcessorConfig(max_instructions=B + 100),
                warmup_instructions=2000)
            assert stats == run_simulation_point(point).to_dict()


class TestKeysNameTheirFamily:
    def test_a_key_round_trips_through_its_family_and_length(self):
        workload = {"kind": "synthetic-profile", "benchmark": "gcc",
                    "instructions": 700}
        family, length = family_length(trace_key(workload, CONFIG))
        assert length == 700
        longer = dict(workload, instructions=1400)
        assert family_length(trace_key(longer, CONFIG)) == (family, 1400)
        short, long = _point(), _point(budget=2 * B)
        assert family_length(short.trace_key()) == (short.family_key(),
                                                    short.stream_length())
        assert family_length(long.trace_key()) == (short.family_key(),
                                                   long.stream_length())

    def test_keys_of_other_forms_name_no_family(self):
        for key in (hashlib.sha256(b"trace").hexdigest(), "junk", "-12",
                    "family-", "family-twelve"):
            assert family_length(key) is None, key

    def test_cover_skips_keys_of_other_forms(self, tmp_path):
        cache_dir = str(tmp_path)
        point = _point()
        trace = _trace(point, 2 * B)
        store = TraceStore(cache_dir)
        # A key of the old opaque form, holding a real blob, and junk.
        store._disk.put(hashlib.sha256(b"old key").hexdigest(), trace.to_bytes())
        store._disk.put("junk", b"junk")
        assert store.cover(point.family_key(), B + SLACK) is None
        store.put(trace)
        fresh = TraceStore(cache_dir)  # only the disk tier knows the key
        assert len(fresh.cover(point.family_key(), B + SLACK)) == 2 * B

    def test_the_engine_records_beside_keys_of_other_forms(self, tmp_path):
        cache_dir = str(tmp_path)
        point = _point(architecture="register file cache")
        engine = _engine(cache_dir)
        engine.trace_store._disk.put(hashlib.sha256(b"old key").hexdigest(),
                                     _trace(point, 2 * B).to_bytes())
        engine.trace_store._disk.put("junk", b"junk")
        summary = engine.execute([point])
        assert summary["traces_recorded"] == 1
        assert (engine.store.get(point.store_key()).to_dict()
                == run_simulation_point(point).to_dict())

    def test_each_row_files_its_family_and_length(self, tmp_path):
        engine = _engine(str(tmp_path))
        engine.execute([_point(budget=2 * B), _point()])
        rows = engine.trace_store._disk.database.query(
            "SELECT key, family, length FROM traces")
        assert rows
        for key, family, length in rows:
            assert family_length(key) == (family, length)
