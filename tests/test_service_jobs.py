"""Job model, priority queue and the job log."""

from __future__ import annotations

import glob
import json
import os
from datetime import datetime

import pytest

from repro.chaos import seams
from repro.chaos.faults import Fault, FaultInjector
from repro.service import ServiceApp
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
from repro.storage import ShardedStore


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


def job_log(cache_dir: str) -> ShardedStore:
    """A second handle on the job log, for writing records by hand."""
    return ShardedStore(os.path.join(cache_dir, "jobs"), num_shards=1)


class TestJobStore:
    def test_save_and_load_all(self, tmp_path):
        store = JobStore(str(tmp_path))
        first, second = make_job("a" * 12), make_job("b" * 12)
        store.save(first)
        store.save(second)
        loaded = JobStore(str(tmp_path)).load_changed()
        assert {job.id for job in loaded} == {first.id, second.id}

    def test_memoryless_without_cache_dir(self):
        store = JobStore(None)
        store.save(make_job())
        assert store.load_changed() == []
        assert store.load("abc123def456") is None

    def test_torn_log_tail_keeps_earlier_transitions(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job("a" * 12)
        store.save(job)
        job.mark_running()
        store.save(job)
        (segment,) = glob.glob(os.path.join(store.job_dir, "shard-*",
                                            "seg-*.log"))
        with open(segment, "ab") as handle:
            handle.write(b"\x07\x00\x00garbage-of-a-dying-writer")
        fresh = JobStore(str(tmp_path))
        (loaded,) = fresh.load_changed()
        assert loaded.state == RUNNING
        assert fresh.quarantined == 0
        # The next save truncates the torn bytes and lands intact.
        job.mark_completed({"kind": "figures", "results": []}, {})
        fresh.save(job)
        assert JobStore(str(tmp_path)).load(job.id).state == COMPLETED

    def test_schema_mismatch_is_quarantined(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(make_job("a" * 12))
        job_log(str(tmp_path)).put("c" * 12, json.dumps(
            {"schema": 999, "id": "c" * 12, "state": QUEUED}
        ).encode("utf-8"))
        fresh = JobStore(str(tmp_path))
        assert [job.id for job in fresh.load_changed()] == ["a" * 12]
        assert fresh.quarantined == 1
        assert fresh.load("c" * 12) is None
        # Counted once per record, not once per poll.
        assert fresh.load_changed() == []
        assert fresh.quarantined == 1

    def test_key_id_mismatch_is_quarantined(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job("d" * 12)
        job_log(str(tmp_path)).put("e" * 12, json.dumps(
            job.to_dict(include_result=True)
        ).encode("utf-8"))
        assert store.load_changed() == []
        assert store.quarantined == 1
        assert store.load("e" * 12) is None

    def test_stored_value_is_the_records_json(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job("a" * 12)
        job.mark_running()
        job.mark_completed({"kind": "figures", "results": [{"ipc": 1.25}]},
                           {"executed": 0, "cached": 3})
        store.save(job)
        expected = json.dumps(job.to_dict(include_result=True), default=str)
        assert job_log(str(tmp_path)).get(job.id) == expected.encode("utf-8")

    def test_save_overwrites_atomically(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job("f" * 12)
        store.save(job)
        job.mark_running()
        store.save(job)
        (loaded,) = JobStore(str(tmp_path)).load_changed()
        assert loaded.state == RUNNING
        # The latest save wins; the job dir holds only the log.
        names = {name for _, _, files in os.walk(store.job_dir)
                 for name in files}
        assert names == {".lock", "seg-00000001.log"}

    def test_second_instance_sees_later_save_of_same_id(self, tmp_path):
        writer, reader = JobStore(str(tmp_path)), JobStore(str(tmp_path))
        job = make_job("a" * 12)
        writer.save(job)
        assert reader.load(job.id).state == QUEUED
        job.mark_running()
        writer.save(job)
        assert reader.load(job.id).state == RUNNING

    def test_load_reads_one_record_without_listing_every_job(
            self, tmp_path, monkeypatch):
        writer, reader = JobStore(str(tmp_path)), JobStore(str(tmp_path))
        for index in range(20):
            writer.save(make_job(f"{index:012d}"))
        job = make_job("a" * 12)
        writer.save(job)

        def listing(_store):
            raise AssertionError("load must not list every job")

        monkeypatch.setattr(ShardedStore, "versions", listing)
        assert reader.load(job.id).state == QUEUED
        job.mark_running()
        writer.save(job)
        assert reader.load(job.id).state == RUNNING
        assert reader.load("f" * 12) is None

    def test_jobs_saved_within_one_second_reload_in_submission_order(
            self, tmp_path):
        while True:  # two submissions inside one wall-clock second
            first, second = make_job("1" * 12), make_job("2" * 12)
            if first.submitted_at[:19] == second.submitted_at[:19]:
                break
        store = JobStore(str(tmp_path))
        store.save(second)  # log order is the reverse of submission order
        store.save(first)
        loaded = JobStore(str(tmp_path)).load_changed()
        assert [job.id for job in loaded] == [first.id, second.id]

    def test_second_resolution_record_still_loads(self, tmp_path):
        payload = make_job("0" * 12).to_dict(include_result=True)
        payload["submitted_at"] = "2020-01-01T00:00:00+00:00"
        payload["spec"]["deadline_s"] = 30
        job_log(str(tmp_path)).put("0" * 12,
                                   json.dumps(payload).encode("utf-8"))
        (loaded,) = JobStore(str(tmp_path)).load_changed()
        assert loaded.submitted_at == "2020-01-01T00:00:00+00:00"
        # The deadline still counts from the old timestamp: long gone.
        assert ServiceApp(cache_dir=None)._deadline_remaining(loaded) < 0

    def test_timestamps_have_microseconds(self):
        job = make_job()
        job.record_fault("crash")
        job.mark_failed("boom", "")
        for stamp in (job.submitted_at, job.finished_at,
                      job.fault_history[0]["at"]):
            assert datetime.fromisoformat(stamp).tzinfo is not None
            assert "." in stamp

    def test_storage_enospc_during_save_counts_save_errors(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job("a" * 12)
        store.save(job)
        seams.install(FaultInjector([
            Fault(seam="storage.append", action="enospc", count=None),
        ]))
        try:
            job.mark_running()
            store.save(job)  # the log degrades to read-only: dropped
        finally:
            seams.uninstall()
        assert store.save_errors == 1
        store.save(job)  # read-only is sticky: still dropped
        assert store.save_errors == 2
        assert JobStore(str(tmp_path)).load(job.id).state == QUEUED


class TestJobLogPolling:
    """The fleet poller decodes only records written since its last poll."""

    @pytest.mark.parametrize("history", [100, 1600])
    def test_unchanged_poll_decodes_nothing(self, tmp_path, monkeypatch,
                                            history):
        writer = JobStore(str(tmp_path))
        for index in range(history):
            job = make_job(f"{index:012x}")
            job.mark_running()
            job.mark_completed({"kind": "figures", "results": []}, {})
            writer.save(job)
        decoded = []
        original = Job.from_dict.__func__

        def counting(cls, payload):
            decoded.append(payload.get("id"))
            return original(cls, payload)

        monkeypatch.setattr(Job, "from_dict", classmethod(counting))
        app = ServiceApp(cache_dir=str(tmp_path), replica_id="poller")
        try:
            app._fleet_poll_once()
            assert len(decoded) == history
            assert app.adopted_jobs == history
            decoded.clear()
            app._fleet_poll_once()
            assert decoded == []
            fresh = make_job("f" * 12)
            writer.save(fresh)
            app._fleet_poll_once()
            assert decoded == [fresh.id]
        finally:
            app.stop()


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
