"""Job model, priority queue and on-disk job store."""

from __future__ import annotations

import json
import os

import pytest

from repro.service.jobs import (
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    SCHEMA_VERSION,
    Job,
    JobQueue,
    JobStore,
    new_job_id,
)


def make_job(job_id: str = "abc123def456", priority: int = 0) -> Job:
    return Job(id=job_id, spec={"figure": "figure6", "settings": {}},
               priority=priority)


class TestJobModel:
    def test_round_trip(self):
        job = make_job()
        job.points["requested"] = 6
        job.points["unique"] = 3
        job.mark_running()
        job.mark_completed({"kind": "figures", "results": []},
                           {"executed": 3, "cached": 0})
        payload = job.to_dict(include_result=True)
        clone = Job.from_dict(payload)
        assert clone.id == job.id
        assert clone.state == COMPLETED
        assert clone.points == job.points
        assert clone.counters == {"executed": 3, "cached": 0}
        assert clone.result == {"kind": "figures", "results": []}
        assert clone.submitted_at == job.submitted_at

    def test_to_dict_embeds_schema_and_version(self):
        payload = make_job().to_dict()
        assert payload["schema"] == SCHEMA_VERSION
        from repro import __version__

        assert payload["version"] == __version__
        assert "result" not in payload  # status payloads stay small

    def test_failed_records_cause(self):
        job = make_job()
        job.mark_failed("worker_crashed", "a worker died")
        assert job.state == FAILED
        assert job.terminal
        assert job.error == {"code": "worker_crashed", "message": "a worker died"}

    def test_from_dict_rejects_bad_schema_and_state(self):
        with pytest.raises(ValueError):
            Job.from_dict({"schema": 999, "id": "x", "state": QUEUED})
        with pytest.raises(ValueError):
            Job.from_dict({"schema": SCHEMA_VERSION, "id": "x",
                           "state": "exploded"})

    def test_new_job_ids_are_unique(self):
        ids = {new_job_id() for _ in range(64)}
        assert len(ids) == 64


class TestJobStore:
    def test_save_and_load_all(self, tmp_path):
        store = JobStore(str(tmp_path))
        first, second = make_job("a" * 12), make_job("b" * 12)
        store.save(first)
        store.save(second)
        loaded = JobStore(str(tmp_path)).load_all()
        assert {job.id for job in loaded} == {first.id, second.id}

    def test_memoryless_without_cache_dir(self):
        store = JobStore(None)
        store.save(make_job())
        assert store.load_all() == []

    def test_corrupt_file_is_quarantined(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(make_job("a" * 12))
        bad = os.path.join(store.job_dir, "deadbeef0000.json")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        fresh = JobStore(str(tmp_path))
        loaded = fresh.load_all()
        assert [job.id for job in loaded] == ["a" * 12]
        assert fresh.quarantined == 1
        assert not os.path.exists(bad)
        assert os.path.exists(
            os.path.join(fresh.job_dir, "quarantine", "deadbeef0000.json")
        )

    def test_schema_mismatch_is_quarantined(self, tmp_path):
        store = JobStore(str(tmp_path))
        path = os.path.join(store.job_dir, "c" * 12 + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 999, "id": "c" * 12, "state": QUEUED}, handle)
        fresh = JobStore(str(tmp_path))
        assert fresh.load_all() == []
        assert fresh.quarantined == 1

    def test_filename_id_mismatch_is_quarantined(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job("d" * 12)
        path = os.path.join(store.job_dir, "e" * 12 + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(job.to_dict(include_result=True), handle)
        fresh = JobStore(str(tmp_path))
        assert fresh.load_all() == []
        assert fresh.quarantined == 1

    def test_saved_file_is_the_records_json(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job("a" * 12)
        job.mark_running()
        job.mark_completed({"kind": "figures", "results": [{"ipc": 1.25}]},
                           {"executed": 0, "cached": 3})
        store.save(job)
        with open(os.path.join(store.job_dir, job.id + ".json"), "rb") as handle:
            written = handle.read()
        expected = json.dumps(job.to_dict(include_result=True), default=str)
        assert written == expected.encode("utf-8")

    def test_save_overwrites_atomically(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job("f" * 12)
        store.save(job)
        job.mark_running()
        store.save(job)
        (loaded,) = JobStore(str(tmp_path)).load_all()
        assert loaded.state == RUNNING
        # No leftover temp files from the two writes.
        leftovers = [name for name in os.listdir(store.job_dir)
                     if name.endswith(".tmp")]
        assert leftovers == []


class TestJobQueue:
    def test_priority_order_then_fifo(self):
        queue = JobQueue()
        low = make_job("1" * 12, priority=0)
        high = make_job("2" * 12, priority=5)
        low2 = make_job("3" * 12, priority=0)
        for job in (low, high, low2):
            queue.add(job)
        order = [queue.next_job(timeout=0.1).id for _ in range(3)]
        assert order == [high.id, low.id, low2.id]
        assert queue.next_job(timeout=0.01) is None

    def test_registry_keeps_unqueued_jobs(self):
        queue = JobQueue()
        done = make_job("4" * 12)
        done.mark_running()
        done.mark_completed({}, {})
        queue.add(done, enqueue=False)
        assert queue.get(done.id) is done
        assert queue.depth() == 0
        assert queue.by_state()[COMPLETED] == 1
