"""The cache directory's SQLite database across processes and full disks.

* a writer SIGKILLed during a stream of puts loses no put it reported,
  and the database reopens cleanly;
* two processes putting one key at once both read one value back, and
  no "database is locked" escapes;
* a full disk (forced with ``PRAGMA max_page_count``) turns the store
  read-only: writes are counted as errors, reads keep being served;
* the job store's changed-since query returns only what was saved
  since, and a trace another process stored covers a shorter budget;
* the engine writes one result row per executed point and no claims.

Child processes use the ``spawn`` start method, so none inherits the
parent's connection.
"""

import hashlib
import multiprocessing as mp
import os
import signal
import time

from repro.experiments.scheduler import SimulationPoint, SweepEngine, fetch_slack
from repro.experiments.store import ResultStore
from repro.experiments.common import SingleBankedFactory
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimulationStats
from repro.service.fleet import LeaseManager
from repro.service.jobs import Job, JobStore
from repro.storage import Table, open_database
from repro.trace import TraceStore

_MP = mp.get_context("spawn")

CONFIG = ProcessorConfig(max_instructions=300)


def _key(tag, index):
    return hashlib.sha256(f"{tag}-{index}".encode("utf-8")).hexdigest()


def _value_for(key):
    return (key * 3).encode("utf-8")


def _point(budget):
    return SimulationPoint(
        benchmark="gcc",
        factory=SingleBankedFactory(latency=1, bypass_levels=1),
        architecture="1-cycle",
        config=CONFIG.with_overrides(max_instructions=budget),
        warmup_instructions=fetch_slack(CONFIG),
    )


# ----------------------------------------------------------------------
# spawn-safe child entry points (must be module-level picklables)
# ----------------------------------------------------------------------


def _victim_main(cache_dir, progress_path):
    """Put forever, recording every put that returned; parent SIGKILLs."""
    table = Table(open_database(cache_dir), "results")
    index = 0
    while True:
        key = _key("victim", index)
        table.put(key, _value_for(key))
        with open(progress_path, "a", encoding="utf-8") as handle:
            handle.write(key + "\n")
        index += 1


def _racer_main(cache_dir, value, puts, barrier, result_path):
    table = Table(open_database(cache_dir), "results")
    barrier.wait()
    for _ in range(puts):
        table.put("contended", value)
    barrier.wait()  # both writers are done before either reads
    with open(result_path, "wb") as handle:
        handle.write(table.get("contended"))


def _engine_main(cache_dir, budget):
    SweepEngine(store=ResultStore(cache_dir=cache_dir),
                trace_store=TraceStore(cache_dir)).execute([_point(budget)])


def _run(target, *args):
    process = _MP.Process(target=target, args=args)
    process.start()
    process.join(timeout=120)
    assert process.exitcode == 0


# ----------------------------------------------------------------------


class TestAcrossProcesses:
    def test_killed_writer_loses_no_reported_put(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        progress = str(tmp_path / "progress")
        victim = _MP.Process(target=_victim_main, args=(cache_dir, progress))
        victim.start()
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if os.path.exists(progress) and os.path.getsize(progress) > 65 * 50:
                    break
                time.sleep(0.02)
        finally:
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
        assert victim.exitcode == -signal.SIGKILL
        with open(progress, encoding="utf-8") as handle:
            reported = [line.strip() for line in handle if len(line.strip()) == 64]
        assert len(reported) >= 50
        database = open_database(cache_dir)
        assert database.query("PRAGMA integrity_check") == [("ok",)]
        table = Table(database, "results")
        for key in reported:
            assert table.get(key) == _value_for(key), key
        table.put("after", b"healed")  # the reopened database takes writes
        assert table.get("after") == b"healed"

    def test_two_writers_of_one_key_read_one_value(self, tmp_path):
        cache_dir = str(tmp_path)
        barrier = _MP.Barrier(2)
        racers = [
            _MP.Process(target=_racer_main,
                        args=(cache_dir, value, 200, barrier, str(tmp_path / name)))
            for name, value in (("a", b"from-a"), ("b", b"from-b"))
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=120)
        assert [racer.exitcode for racer in racers] == [0, 0]
        read = {(tmp_path / name).read_bytes() for name in ("a", "b")}
        assert len(read) == 1 and read <= {b"from-a", b"from-b"}
        assert Table(open_database(cache_dir), "results").get("contended") in read

    def test_cover_finds_a_trace_another_process_stored(self, tmp_path):
        cache_dir = str(tmp_path)
        store = TraceStore(cache_dir)  # opened before the other process writes
        long_point, short_point = _point(600), _point(300)
        _run(_engine_main, cache_dir, 600)
        trace = store.cover(short_point.family_key(), short_point.reach())
        assert trace is not None
        assert trace.key == long_point.trace_key()


class TestFullDisk:
    def test_full_database_turns_read_only_and_serves_memory(self, tmp_path):
        store = ResultStore(cache_dir=str(tmp_path))
        stats = SimulationStats(benchmark="gcc", cycles=10, committed_instructions=5)
        store.put("first", stats)
        database = store._disk.database
        (pages,) = database.query("PRAGMA page_count")[0]
        database.query(f"PRAGMA max_page_count = {pages}")
        for index in range(200):  # until the file cannot grow
            store.put(f"key-{index}", stats)
        assert database.read_only
        assert store.storage_stats()["read_only"] == 1
        assert store.storage_stats()["write_errors"] == 1
        # Every put still answers from the memory tier.
        for index in range(200):
            assert store.get(f"key-{index}") is stats
        assert ResultStore(cache_dir=str(tmp_path)).get("first") == stats
        # Read-only is sticky for the database: the job store drops saves,
        # and leases are granted without a row (a fleet of one).
        jobs = JobStore(str(tmp_path))
        jobs.save(Job(id="a" * 12, spec={}))
        assert jobs.save_errors == 1
        leases = [LeaseManager(str(tmp_path), owner=owner) for owner in ("a", "b")]
        assert all(lease.acquire("job") for lease in leases)
        assert leases[0].holder("job") is None


class TestTables:
    def test_load_changed_returns_only_new_saves(self, tmp_path):
        store = JobStore(str(tmp_path))
        for index in range(1000):
            store.save(Job(id=f"{index:012d}", spec={}))
        assert len(store.load_changed()) == 1000
        fresh = Job(id="f" * 12, spec={})
        store.save(fresh)
        assert [job.id for job in store.load_changed()] == [fresh.id]
        store.save(Job(id=f"{7:012d}", spec={"resaved": True}))
        (resaved,) = store.load_changed()
        assert resaved.spec == {"resaved": True}
        assert store.load_changed() == []

    def test_engine_writes_one_result_row_per_point_and_no_claims(self, tmp_path):
        cache_dir = str(tmp_path)
        points = [_point(budget) for budget in (300, 400, 500)]
        summary = SweepEngine(store=ResultStore(cache_dir=cache_dir)).execute(points)
        assert summary["executed"] == 3
        database = open_database(cache_dir)
        assert database.query("SELECT count(*) FROM results") == [(3,)]
        assert database.query("SELECT count(*) FROM claims") == [(0,)]

    def test_a_deleted_cache_dir_is_reopened_empty(self, tmp_path):
        cache_dir = tmp_path / "cache"
        Table(open_database(str(cache_dir)), "results").put("k", b"v")
        held = open_database(str(cache_dir))
        for name in os.listdir(cache_dir):
            os.unlink(cache_dir / name)
        table = Table(open_database(str(cache_dir)), "results")
        assert table.database is not held
        assert table.get("k") is None

