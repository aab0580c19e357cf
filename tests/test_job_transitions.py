"""How a job ends and how it goes back to the queue.

* the queue hands out each due deadline once, and only for a job that
  has not ended; a deadline watchdog tick costs the same Python calls
  whatever number of finished jobs the queue holds;
* a hung job killed by its deadline ends once, even when its late
  executor returns afterwards: one terminal phase, one root ``job``
  span end, one ``deadline_exceeded`` fault and count;
* a replica whose executor finds a job already finished by another
  replica saves and emits nothing for it;
* a job resumed after a crash and one stolen from an expired lease go
  through the same re-queue routine and leave the same record.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.chaos import seams
from repro.chaos.faults import Fault, FaultInjector
from repro.obs.events import read_events
from repro.service import ServiceApp
from repro.service.app import EVENTS_SUBDIR
from repro.service.fleet import LeaseManager
from repro.service.jobs import (
    COMPLETED, FAILED, QUEUED, RUNNING, Job, JobQueue, JobStore,
)

POINTS = [{"benchmark": "gcc", "config": {"max_instructions": 300}}]


@pytest.fixture(autouse=True)
def clean_seams():
    seams.uninstall()
    yield
    seams.uninstall()


def test_expired_pops_each_due_deadline_once():
    queue = JobQueue()
    live = Job(id="1" * 12, spec={"points": POINTS, "deadline_s": 10})
    queue.add(live)
    queue.add(live, enqueue=False)  # added again: a second entry
    ended = Job(id="2" * 12, spec={"points": POINTS, "deadline_s": 10})
    ended.mark_completed({})
    queue.add(ended)
    later = Job(id="3" * 12, spec={"points": POINTS, "deadline_s": 60})
    queue.add(later)
    queue.add(Job(id="4" * 12, spec={"points": POINTS}))  # no deadline
    assert live.deadline == live.submitted_s + 10
    assert queue.expired(live.deadline - 1) == []
    assert queue.expired(live.deadline) == [live]
    assert queue.expired(live.deadline) == []
    assert queue.expired(later.deadline + 3600) == [later]


class _OneTick:
    """A stop event that lets a service loop run once."""

    def __init__(self) -> None:
        self.checks = 0

    def is_set(self) -> bool:
        self.checks += 1
        return self.checks > 1

    def wait(self, timeout) -> bool:
        return self.is_set()


def watchdog_tick_calls(finished_jobs: int) -> int:
    """Python calls of one watchdog tick over a queue holding
    ``finished_jobs`` completed jobs without a deadline."""
    app = ServiceApp(cache_dir=None)
    for index in range(finished_jobs):
        job = Job(id=f"{index:012d}", spec={"points": POINTS})
        job.mark_completed({})
        app.queue.add(job, enqueue=False)
    app._stop = _OneTick()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        app._watchdog_loop()
    finally:
        sys.setprofile(None)
    assert app._stop.checks == 2
    return calls


def test_watchdog_tick_costs_the_same_after_5000_jobs():
    assert watchdog_tick_calls(5000) == watchdog_tick_calls(10)


def test_late_executor_after_a_deadline_kill_ends_the_job_once(tmp_path):
    cache = str(tmp_path)
    # The point's work hangs well past the deadline; the watchdog fails
    # the job meanwhile, and the executor returns to a terminal job.
    seams.install(FaultInjector([
        Fault(seam="engine.point", action="hang", count=None, delay_s=2.0),
    ]))
    app = ServiceApp(cache_dir=cache, jobs=1)
    app.start()
    try:
        job = app.submit({"points": POINTS, "deadline_s": 0.5})
        end = time.monotonic() + 30
        while not job.terminal and time.monotonic() < end:
            time.sleep(0.02)
        assert job.state == FAILED
        assert job.error["code"] == "deadline_exceeded"
    finally:
        app.stop(drain=True, timeout=60)  # waits out the hung executor
    events = [event for event in read_events(os.path.join(cache, EVENTS_SUBDIR))
              if event.get("job_id") == job.id]

    def ended(span):
        return [event for event in events
                if event["kind"] == "span_end" and event["span"] == span]

    # The executor did come back: its execute span ended with an error.
    assert len(ended("execute")) == len(ended("lease.hold")) == 1
    terminal = [event["phase"] for event in events
                if event["kind"] == "job_phase"
                and event["phase"] in ("completed", "failed")]
    assert terminal == ["failed"]
    assert len(ended("job")) == 1
    record = JobStore(cache).load(job.id)
    assert record.state == FAILED
    assert [fault["event"] for fault in record.fault_history] == [
        "deadline_exceeded"]
    assert app.metrics()["jobs"]["deadline_failures"] == 1


def test_a_job_another_replica_finished_ends_in_its_log_only(tmp_path):
    cache = str(tmp_path)
    owner = ServiceApp(cache_dir=cache, replica_id="a")
    job = owner.submit({"points": POINTS})  # not started: stays queued
    adopter = ServiceApp(cache_dir=cache, replica_id="b")
    adopter._fleet_poll_once()
    assert adopter.get_job(job.id).state == QUEUED
    # The owner finishes the job before the adopter's executor gets to it.
    job.mark_completed({"executed": 0})
    owner.job_store.save(job)
    adopter._stop = _OneTick()
    adopter._executor_loop()  # leases the job, reads it finished, skips it
    assert adopter._stop.checks == 2
    adopter.telemetry.close()
    owner.telemetry.close()
    assert adopter.get_job(job.id).state == COMPLETED
    assert adopter.leases.holder(job.id) is None
    assert JobStore(cache).load(job.id).to_dict() == job.to_dict()
    events = [event for event in read_events(os.path.join(cache, EVENTS_SUBDIR))
              if event.get("job_id") == job.id]
    assert events
    assert {event["source"] for event in events} == {"service_a"}


def save_running_job(cache_dir: str, job_id: str) -> None:
    """A record left ``running`` by an owner that is gone."""
    JobStore(cache_dir).save(Job(
        id=job_id, spec={"points": POINTS}, state=RUNNING,
        submitted_at="2026-01-01T00:00:00.000000+00:00",
        started_at="2026-01-01T00:00:01.000000+00:00", attempts=1,
    ))


def test_resumed_and_stolen_jobs_leave_the_same_record(tmp_path, monkeypatch):
    requeued = {}
    requeue = ServiceApp._requeue

    def recording(app, job, *args, **kwargs):
        requeue(app, job, *args, **kwargs)
        requeued[job.id] = job.to_dict()

    monkeypatch.setattr(ServiceApp, "_requeue", recording)

    # A crash: the record says running, and no lease is held.
    crashed = str(tmp_path / "crashed")
    save_running_job(crashed, "resumed00000")
    app = ServiceApp(cache_dir=crashed, replica_id="r1")
    app.start()  # re-queues the job before any executor runs
    app.stop(drain=True, timeout=60)
    assert app.resumed_jobs == 1

    # A dead replica: its lease on the running job has expired.
    fleet = str(tmp_path / "fleet")
    save_running_job(fleet, "stolen000000")
    assert LeaseManager(fleet, owner="dead", ttl=1.0,
                        clock=lambda: 0.0).acquire("stolen000000")
    thief = ServiceApp(cache_dir=fleet, replica_id="r1")
    thief._fleet_poll_once()  # adopts the running job, then steals it
    thief.stop()
    assert thief.stolen_jobs == 1

    resumed = requeued.pop("resumed00000")
    stolen = requeued.pop("stolen000000")
    assert requeued == {}
    assert JobStore(fleet).load("stolen000000").to_dict() == stolen
    for record in (resumed, stolen):
        assert record["state"] == QUEUED
        assert record["started_at"] is None
        assert record["attempts"] == 1
        del record["id"]
        for fault in record["fault_history"]:
            del fault["at"]
    assert [fault["event"] for fault in resumed["fault_history"]] == [
        "resume_requeue"]
    assert [fault["event"] for fault in stolen["fault_history"]] == [
        "lease_expired"]
    stolen["fault_history"][0]["event"] = "resume_requeue"
    assert resumed == stolen
