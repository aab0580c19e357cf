"""Concurrency and fault-injection suite for the storage + fleet layer.

This suite is the proof behind the traffic-grade claims:

* several *processes* hammer one sharded store (writers, readers and a
  compactor at once) without corruption;
* a writer SIGKILLed mid-stream never damages the log — every put that
  returned is durable, the torn tail is skipped by readers and
  truncated away by the next writer;
* store-level claims give cross-replica single-flight, including
  reclaim of a crashed claimer's points after its claim expires;
* a service replica killed mid-job has its lease expire and the job is
  stolen and completed by a surviving replica, with the dead replica's
  finished points served from the shared cache.

Child processes use the ``spawn`` start method: the parent runs service
threads, and forking a threaded process can deadlock the child.
"""

import hashlib
import json
import multiprocessing as mp
import os
import threading
import time

import pytest

from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    run_simulation_point,
)
from repro.experiments.store import ResultStore
from repro.obs.prometheus import parse as parse_prometheus
from repro.pipeline.config import ProcessorConfig
from repro.service.app import ServiceApp
from repro.service.fleet import LeaseManager
from repro.service.jobs import COMPLETED, RUNNING, JobStore
from repro.storage import segment as seg
from repro.storage.sharded import ShardedStore
from repro.validate.differential import validation_matrix

_MP = mp.get_context("spawn")


def _wait_for(condition, timeout, message):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if condition():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {message}")


def _key(tag, index):
    return hashlib.sha256(f"{tag}-{index}".encode("utf-8")).hexdigest()


def _value_for(key):
    return (key * 3).encode("utf-8")


# ----------------------------------------------------------------------
# spawn-safe child entry points (must be module-level picklables)
# ----------------------------------------------------------------------


def _writer_main(root, tag, count):
    store = ShardedStore(root, num_shards=4)
    for index in range(count):
        key = _key(tag, index)
        store.put(key, _value_for(key))


def _reader_main(root, tags, count, iterations, error_path):
    store = ShardedStore(root, num_shards=4)
    for _ in range(iterations):
        for tag in tags:
            for index in range(count):
                key = _key(tag, index)
                value = store.get(key)
                if value is not None and value != _value_for(key):
                    with open(error_path, "a", encoding="utf-8") as handle:
                        handle.write(f"corrupt read for {key}\n")
                    return


def _compactor_main(root, stop_path):
    store = ShardedStore(root, num_shards=4)
    while not os.path.exists(stop_path):
        store.compact()
        time.sleep(0.01)


def _torn_victim_main(root, progress_path):
    """Append forever, recording every *completed* put; parent SIGKILLs."""
    store = ShardedStore(root, num_shards=1)
    index = 0
    while True:
        key = _key("victim", index)
        store.put(key, _value_for(key))
        with open(progress_path, "a", encoding="utf-8") as handle:
            handle.write(key + "\n")
            handle.flush()
        index += 1


def _victim_replica_main(cache_dir, spec_json, ready_path):
    """A doomed service replica: submit one job, run it, await SIGKILL."""
    app = ServiceApp(
        cache_dir=cache_dir, jobs=1, job_concurrency=1,
        replica_id="victim", lease_ttl=1.0, fleet_poll_interval=0.25,
        claim_ttl=1.0,
    )
    app.start()
    job = app.submit(json.loads(spec_json))
    tmp = ready_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(job.id)
    os.replace(tmp, ready_path)
    while True:
        time.sleep(0.05)


# ----------------------------------------------------------------------
# multi-process store hammering
# ----------------------------------------------------------------------


class TestConcurrentStore:
    WRITERS = 3
    COUNT = 30

    def test_parallel_writers_then_readback(self, tmp_path):
        root = str(tmp_path / "store")
        procs = [
            _MP.Process(target=_writer_main, args=(root, f"w{i}", self.COUNT))
            for i in range(self.WRITERS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        fresh = ShardedStore(root, num_shards=4)
        for i in range(self.WRITERS):
            for index in range(self.COUNT):
                key = _key(f"w{i}", index)
                assert fresh.get(key) == _value_for(key), key
        assert fresh.stats()["entries"] == self.WRITERS * self.COUNT

    def test_writers_readers_and_compaction_concurrently(self, tmp_path):
        root = str(tmp_path / "store")
        stop_path = str(tmp_path / "stop")
        error_path = str(tmp_path / "errors")
        tags = [f"w{i}" for i in range(self.WRITERS)]
        writers = [
            _MP.Process(target=_writer_main, args=(root, tag, self.COUNT))
            for tag in tags
        ]
        readers = [
            _MP.Process(target=_reader_main,
                        args=(root, tags, self.COUNT, 4, error_path))
            for _ in range(2)
        ]
        compactor = _MP.Process(target=_compactor_main, args=(root, stop_path))
        for proc in writers + readers + [compactor]:
            proc.start()
        try:
            for proc in writers + readers:
                proc.join(timeout=120)
                assert proc.exitcode == 0
        finally:
            with open(stop_path, "w", encoding="utf-8"):
                pass
            compactor.join(timeout=30)
        assert compactor.exitcode == 0
        assert not os.path.exists(error_path), open(error_path).read()
        fresh = ShardedStore(root, num_shards=4)
        for tag in tags:
            for index in range(self.COUNT):
                key = _key(tag, index)
                assert fresh.get(key) == _value_for(key), key


# ----------------------------------------------------------------------
# torn tails
# ----------------------------------------------------------------------


def _only_segment(root):
    shard_dir = os.path.join(root, "shard-00")
    names = [n for n in os.listdir(shard_dir)
             if n.startswith("seg-") and n.endswith(".log")]
    assert len(names) == 1, names
    return os.path.join(shard_dir, names[0])


class TestTornTail:
    def test_reader_skips_torn_tail(self, tmp_path):
        root = str(tmp_path / "store")
        store = ShardedStore(root, num_shards=1)
        key = _key("torn", 0)
        store.put(key, _value_for(key))
        # A header that promises more payload than follows: the classic
        # shape left by a writer killed between write() and completion.
        with open(_only_segment(root), "ab") as handle:
            handle.write(seg.pack_record({"k": "x", "op": "put", "t": 0.0},
                                         b"y" * 100)[:40])
        fresh = ShardedStore(root, num_shards=1)
        assert fresh.get(key) == _value_for(key)
        assert fresh.stats()["torn_tails"] >= 1

    def test_next_writer_truncates_torn_tail(self, tmp_path):
        root = str(tmp_path / "store")
        store = ShardedStore(root, num_shards=1)
        first = _key("torn", 1)
        store.put(first, _value_for(first))
        with open(_only_segment(root), "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef garbage tail")
        second = _key("torn", 2)
        writer = ShardedStore(root, num_shards=1)
        writer.put(second, _value_for(second))
        # The torn bytes are gone: a full scan decodes cleanly end to end.
        records, _, torn = seg.scan_segment(_only_segment(root))
        assert not torn
        assert [record.meta["k"] for record in records] == [first, second]
        fresh = ShardedStore(root, num_shards=1)
        assert fresh.get(first) == _value_for(first)
        assert fresh.get(second) == _value_for(second)

    def test_writer_killed_mid_stream_loses_nothing_durable(self, tmp_path):
        root = str(tmp_path / "store")
        progress_path = str(tmp_path / "progress")
        victim = _MP.Process(target=_torn_victim_main,
                             args=(root, progress_path))
        victim.start()
        try:
            _wait_for(
                lambda: os.path.exists(progress_path)
                and len(open(progress_path).readlines()) >= 10,
                timeout=60, message="the victim writer to make progress",
            )
        finally:
            victim.kill()  # SIGKILL: no cleanup, possibly mid-append
            victim.join(timeout=30)
        with open(progress_path, "r", encoding="utf-8") as handle:
            durable = [line.strip() for line in handle if line.strip()]
        assert len(durable) >= 10
        fresh = ShardedStore(root, num_shards=1)
        for key in durable:
            assert fresh.get(key) == _value_for(key), key
        # The log still accepts (and survives) new writes.
        extra = _key("after-crash", 0)
        fresh.put(extra, _value_for(extra))
        reopened = ShardedStore(root, num_shards=1)
        assert reopened.get(extra) == _value_for(extra)
        for key in durable:
            assert reopened.get(key) == _value_for(key), key


# ----------------------------------------------------------------------
# claims: cross-replica single-flight
# ----------------------------------------------------------------------


def _point(instructions=400):
    return SimulationPoint(
        benchmark="gcc",
        factory=validation_matrix()["monolithic-1c"],
        architecture="mono-1c",
        config=ProcessorConfig(max_instructions=instructions),
    )


class TestClaims:
    def test_claim_conflicts_until_expiry(self, tmp_path):
        clock = [100.0]
        store = ShardedStore(str(tmp_path / "s"), num_shards=1,
                             clock=lambda: clock[0])
        ok, holder = store.claim("aa" * 32, "replica-a", ttl=10.0)
        assert ok and holder == "replica-a"
        ok, holder = store.claim("aa" * 32, "replica-b", ttl=10.0)
        assert not ok and holder == "replica-a"
        clock[0] += 11.0  # the claim expires; b may now take it
        ok, holder = store.claim("aa" * 32, "replica-b", ttl=10.0)
        assert ok and holder == "replica-b"

    def test_put_supersedes_claim(self, tmp_path):
        store = ShardedStore(str(tmp_path / "s"), num_shards=1)
        key = "bb" * 32
        assert store.claim(key, "replica-a", ttl=60.0)[0]
        store.put(key, b"result")
        assert store.claim_holder(key) is None
        # With a value present, claiming reports "just read it".
        assert store.claim(key, "replica-b", ttl=60.0) == (False, None)

    def test_claim_and_release_records_alone_compact(self, tmp_path):
        """A keyspace that only ever holds claims (job leases) stays
        bounded: claim/release appends trigger compaction like puts."""
        store = ShardedStore(str(tmp_path / "s"), num_shards=1,
                             compact_min_bytes=4096)
        for index in range(200):
            key = f"job{index:04d}"
            assert store.claim(key, "replica-a", ttl=60.0)[0]
            assert store.release(key, "replica-a")
        assert store.claim("held", "replica-a", ttl=60.0)[0]
        stats = store.stats()
        assert stats["compactions"] >= 1
        assert stats["dead_bytes"] < 4096
        # Compaction keeps the live claim.
        reopened = ShardedStore(str(tmp_path / "s"), num_shards=1)
        assert reopened.claim_holder("held")[0] == "replica-a"

    def test_engine_waits_for_remotely_claimed_point(self, tmp_path):
        """Replica B never executes a point A is computing — it polls
        until A's result lands in the shared store."""
        cache = str(tmp_path / "cache")
        point = _point()
        key = point.store_key()
        stats = run_simulation_point(point)  # "A's" computation

        store_a = ResultStore(cache_dir=cache, owner="replica-a")
        assert store_a.claim_point(key, ttl=60.0)[0]

        def remote_completes():
            time.sleep(0.3)
            store_a.put(key, stats, metadata=point.metadata())

        publisher = threading.Thread(target=remote_completes)
        publisher.start()
        store_b = ResultStore(cache_dir=cache, owner="replica-b")
        engine = SweepEngine(store=store_b, jobs=1, claim_poll_interval=0.02)
        summary = engine.execute([point])
        publisher.join()
        assert summary["remote_inflight"] == 1
        assert summary["executed"] == 0
        assert summary["remote_reclaimed"] == 0
        assert store_b.peek(key) is not None

    def test_engine_reclaims_expired_remote_claim(self, tmp_path):
        """A crashed claimer's points are reclaimed and executed locally."""
        cache = str(tmp_path / "cache")
        point = _point()
        key = point.store_key()
        store_a = ResultStore(cache_dir=cache, owner="replica-a")
        assert store_a.claim_point(key, ttl=0.3)[0]  # then "a" crashes

        store_b = ResultStore(cache_dir=cache, owner="replica-b")
        engine = SweepEngine(store=store_b, jobs=1, claim_ttl=30.0,
                             claim_poll_interval=0.02)
        summary = engine.execute([point])
        assert summary["remote_inflight"] == 1
        assert summary["remote_reclaimed"] == 1
        assert summary["executed"] == 1
        assert store_b.peek(key) is not None


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------


class TestLeases:
    def test_acquire_conflict_renew_and_expiry(self, tmp_path):
        clock = [50.0]
        a = LeaseManager(str(tmp_path), owner="a", ttl=10.0,
                         clock=lambda: clock[0])
        b = LeaseManager(str(tmp_path), owner="b", ttl=10.0,
                         clock=lambda: clock[0])
        assert a.acquire("job1")
        assert not b.acquire("job1")
        assert a.holder("job1")[0] == "a"
        clock[0] += 8.0
        a.renew_held()  # the heartbeat pushes the deadline forward
        clock[0] += 8.0  # 16s after acquire, 8s after renewal: still live
        assert not b.acquire("job1")
        clock[0] += 3.0  # renewal expired; b may steal
        assert b.acquire("job1")
        assert b.holder("job1")[0] == "b"
        # a's stale renewal must not clobber the thief's lease.
        a.renew_held()
        assert b.holder("job1")[0] == "b"
        assert "job1" not in a.held()

    def test_reassigned_clock_drives_deadlines(self, tmp_path):
        lease = LeaseManager(str(tmp_path), owner="a", ttl=10.0,
                             clock=lambda: 50.0)
        lease.clock = lambda: 1000.0  # what the clock-skew scenario does
        assert lease.acquire("job3")
        assert lease.holder("job3") == ("a", 1010.0)

    def test_release_is_owner_scoped(self, tmp_path):
        a = LeaseManager(str(tmp_path), owner="a", ttl=30.0)
        b = LeaseManager(str(tmp_path), owner="b", ttl=30.0)
        assert a.acquire("job2")
        b.release("job2")  # not b's to release
        assert a.holder("job2")[0] == "a"
        a.release("job2")
        assert a.holder("job2") is None


# ----------------------------------------------------------------------
# fleet: work-stealing and cross-replica dedup
# ----------------------------------------------------------------------

_FLEET_SPEC = {
    "figure": "figure6",
    "settings": {"instructions": 1500, "warmup_instructions": 0,
                 "benchmarks": ["gcc"]},
}

_SLOW_SPEC = {
    "figure": "figure6",
    "settings": {"instructions": 20000, "warmup_instructions": 0,
                 "benchmarks": ["gcc"]},
}


class TestFleet:
    def test_two_live_replicas_never_execute_a_point_twice(self, tmp_path):
        cache = str(tmp_path / "cache")
        app_a = ServiceApp(cache_dir=cache, jobs=2, job_concurrency=1,
                           replica_id="fleet-a", lease_ttl=5.0,
                           fleet_poll_interval=0.2)
        app_b = ServiceApp(cache_dir=cache, jobs=1, job_concurrency=1,
                           replica_id="fleet-b", lease_ttl=5.0,
                           fleet_poll_interval=0.2)
        app_a.start()
        app_b.start()
        try:
            job_a = app_a.submit(dict(_FLEET_SPEC))
            job_b = app_b.submit(dict(_FLEET_SPEC))
            unique = job_a.points["unique"]
            assert unique > 0 and job_b.points["unique"] == unique
            _wait_for(
                lambda: app_a.get_job(job_a.id).state == COMPLETED
                and app_b.get_job(job_b.id).state == COMPLETED,
                timeout=120, message="both replicas' jobs to complete",
            )
        finally:
            app_a.stop(drain=True, timeout=60)
            app_b.stop(drain=True, timeout=60)
        totals_a = app_a.engine.totals()
        totals_b = app_b.engine.totals()
        # The heart of the fleet guarantee: across both replicas, every
        # unique point was executed exactly once.
        assert totals_a["executed"] + totals_b["executed"] == unique
        assert totals_a["remote_reclaimed"] == totals_b["remote_reclaimed"] == 0
        # And the replicas' own registries sum to the same (what CI
        # asserts over HTTP): points in the JSON, latency in the scrape.
        metrics = [app.metrics() for app in (app_a, app_b)]
        assert {m["replica"]["id"] for m in metrics} == {"fleet-a", "fleet-b"}
        assert sum(m["points"]["executed"] for m in metrics) == unique
        assert sum(m["points"]["completed"] for m in metrics) >= 2 * unique
        latency = sum(
            sample.value
            for app in (app_a, app_b)
            for sample in parse_prometheus(app.prometheus_text())[
                "repro_point_simulate_seconds"
            ]
            if sample.name == "repro_point_simulate_seconds_count"
        )
        assert latency == unique

    def test_dead_replica_job_is_stolen_and_completed(self, tmp_path):
        cache = str(tmp_path / "cache")
        ready_path = str(tmp_path / "victim-job-id")
        survivor = ServiceApp(cache_dir=cache, jobs=1, job_concurrency=1,
                              replica_id="survivor", lease_ttl=1.0,
                              fleet_poll_interval=0.5, claim_ttl=1.0)
        survivor.start()
        victim = _MP.Process(
            target=_victim_replica_main,
            args=(cache, json.dumps(_SLOW_SPEC), ready_path),
        )
        victim.start()
        try:
            _wait_for(lambda: os.path.exists(ready_path), timeout=120,
                      message="the victim replica to submit its job")
            with open(ready_path, "r", encoding="utf-8") as handle:
                job_id = handle.read().strip()
            job_store = JobStore(cache)
            leases = LeaseManager(cache, owner="observer", ttl=1.0)

            def victim_is_running():
                job = job_store.load(job_id)
                holder = leases.holder(job_id)
                return (job is not None and job.state == RUNNING
                        and holder is not None and holder[0] == "victim")

            _wait_for(victim_is_running, timeout=120,
                      message="the victim to start running its job")
            time.sleep(0.4)  # let it finish some (not all) points
        finally:
            victim.kill()  # SIGKILL mid-job: no drain, no lease release
            victim.join(timeout=30)
        try:
            def stolen_and_completed():
                job = survivor.queue.get(job_id)
                return job is not None and job.state == COMPLETED

            _wait_for(stolen_and_completed, timeout=180,
                      message="the survivor to steal and finish the job")
        finally:
            survivor.stop(drain=True, timeout=120)
        job = survivor.get_job(job_id)
        assert job.state == COMPLETED
        assert job.points["completed"] == job.points["unique"] > 0
        assert survivor.stolen_jobs >= 1
        # Every point of the stolen job is present in the shared store;
        # whatever the victim finished was reused, not recomputed after
        # its claims expired (reclaim or cache hit, never a duplicate
        # while the victim lived).
        totals = survivor.engine.totals()
        assert totals["executed"] + totals["cached"] >= job.points["unique"]