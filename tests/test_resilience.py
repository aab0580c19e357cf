"""The resilience layer: retries, deadlines, backpressure, quarantine.

Client-side policy is tested with injected clocks/sleeps (no real
waiting); service-side behaviour runs against real in-process
:class:`ServiceApp` instances.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.chaos import seams
from repro.chaos.faults import Fault, FaultInjector
from repro.service import ServiceApp
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    COMPLETED, FAILED, POISON_ATTEMPTS, RUNNING, Job, JobStore,
)
from repro.service.spec import ApiError, validate_submission
from repro.storage import Table, open_database


@pytest.fixture(autouse=True)
def clean_seams():
    seams.uninstall()
    yield
    seams.uninstall()


def make_client(**kwargs) -> ServiceClient:
    kwargs.setdefault("_sleep", lambda _s: None)
    kwargs.setdefault("_rng", random.Random(0))
    return ServiceClient("http://127.0.0.1:1", **kwargs)


class TestClientRetries:
    def _flaky(self, client, failures, error):
        """Stub transport: raise ``error`` for the first N calls."""
        calls = {"n": 0}

        def fake_request_once(method, path, payload=None, raw=False,
                              headers=None):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise error
            return {"ok": True}

        client._request_once = fake_request_once
        return calls

    def test_unreachable_is_retried_then_succeeds(self):
        client = make_client(retries=3)
        calls = self._flaky(client, 2, ServiceError("nope"))
        assert client.health() == {"ok": True}
        assert calls["n"] == 3
        assert client.retried == 2

    def test_503_overloaded_is_retried(self):
        client = make_client(retries=2)
        error = ServiceError("full", code="overloaded", status=503,
                             retry_after=0.0)
        calls = self._flaky(client, 1, error)
        assert client.health() == {"ok": True}
        assert calls["n"] == 2

    def test_non_transient_errors_are_not_retried(self):
        client = make_client(retries=5)
        error = ServiceError("bad spec", code="invalid_spec", status=422)
        calls = self._flaky(client, 99, error)
        with pytest.raises(ServiceError, match="bad spec"):
            client.health()
        assert calls["n"] == 1
        assert client.retried == 0

    def test_retries_exhausted_raises_last_error(self):
        client = make_client(retries=2)
        calls = self._flaky(client, 99, ServiceError("down"))
        with pytest.raises(ServiceError, match="down"):
            client.health()
        assert calls["n"] == 3  # 1 try + 2 retries

    def test_retry_budget_bounds_wall_clock(self):
        clock = {"now": 0.0}

        def fake_clock():
            clock["now"] += 100.0  # every attempt "takes" 100s
            return clock["now"]

        client = make_client(retries=50, retry_budget_s=150.0,
                             _clock=fake_clock)
        calls = self._flaky(client, 99, ServiceError("down"))
        with pytest.raises(ServiceError):
            client.health()
        assert calls["n"] <= 3  # budget, not retry count, stopped it

    def test_server_retry_after_is_the_delay_floor(self):
        delays = []
        client = make_client(retries=1, _sleep=delays.append)
        error = ServiceError("full", code="overloaded", status=503,
                             retry_after=1.5)
        self._flaky(client, 1, error)
        client.health()
        assert delays == [1.5]

    def test_full_jitter_delay_within_envelope(self):
        delays = []
        client = make_client(retries=3, retry_base=0.1, retry_cap=0.3,
                             _sleep=delays.append)
        self._flaky(client, 3, ServiceError("down"))
        client.health()
        assert len(delays) == 3
        for attempt, delay in enumerate(delays):
            assert 0.0 <= delay <= min(0.3, 0.1 * (2 ** attempt))


class TestWatchUnreachable:
    def _client_with_status_script(self, script):
        """``script`` is a list of records or exceptions, served in order."""
        client = make_client(retries=0)
        calls = {"n": 0}

        def fake_status(job_id):
            index = min(calls["n"], len(script) - 1)
            calls["n"] += 1
            entry = script[index]
            if isinstance(entry, Exception):
                raise entry
            return entry

        client.status = fake_status
        return client, calls

    def test_transient_unreachable_is_absorbed(self):
        done = {"id": "j1", "state": "completed", "points": {"completed": 1}}
        client, calls = self._client_with_status_script([
            ServiceError("refused"),
            ServiceError("refused"),
            done,
        ])
        record = client.watch("j1", interval=0.001, _sleep=lambda _s: None)
        assert record["state"] == "completed"
        assert calls["n"] == 3

    def test_continuous_unreachable_eventually_raises(self):
        client, _calls = self._client_with_status_script([
            ServiceError("refused"),
        ])
        clock = {"now": 0.0}

        def fake_clock():
            clock["now"] += 30.0
            return clock["now"]

        with pytest.raises(ServiceError, match="refused"):
            client.watch("j1", interval=0.001, unreachable_timeout=60.0,
                         _sleep=lambda _s: None, _clock=fake_clock)

    def test_non_transport_errors_surface_immediately(self):
        client, calls = self._client_with_status_script([
            ServiceError("gone", code="job_not_found", status=404),
        ])
        with pytest.raises(ServiceError, match="gone"):
            client.watch("j1", interval=0.001, _sleep=lambda _s: None)
        assert calls["n"] == 1


class TestDeadlines:
    def test_deadline_s_validated(self):
        with pytest.raises(ApiError) as caught:
            validate_submission({
                "points": [{"benchmark": "gcc",
                            "config": {"max_instructions": 300}}],
                "deadline_s": -1,
            })
        assert caught.value.status == 422

    def test_deadline_round_trips_through_the_plan(self):
        plan = validate_submission({
            "points": [{"benchmark": "gcc",
                        "config": {"max_instructions": 300}}],
            "deadline_s": 12.5,
        })
        assert plan.deadline_s == 12.5
        assert plan.spec["deadline_s"] == 12.5

    def test_expired_deadline_fails_before_starting(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1, job_concurrency=1)
        # Submit first, then start: the deadline burns down while queued.
        job = app.submit({
            "points": [{"benchmark": "gcc",
                        "config": {"max_instructions": 300}}],
            "deadline_s": 1e-6,
        })
        app.start()
        try:
            assert _wait_terminal(app, job.id, timeout=30.0)
            record = app.get_job(job.id)
            assert record.state == FAILED
            assert record.error["code"] == "deadline_exceeded"
            assert app.deadline_failures >= 1
        finally:
            app.stop(drain=True, timeout=30.0)


def _wait_terminal(app, job_id, timeout):
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        job = app.get_job(job_id)
        if job is not None and job.terminal:
            return True
        time.sleep(0.02)
    return False


class TestOverload:
    def test_full_queue_rejects_with_structured_503(self, tmp_path):
        # The app is never started: submissions stay queued, so the
        # depth cap is hit deterministically.
        app = ServiceApp(cache_dir=str(tmp_path), max_queue_depth=1)
        spec = {"points": [{"benchmark": "gcc",
                            "config": {"max_instructions": 300}}]}
        app.submit(spec)
        with pytest.raises(ApiError) as caught:
            app.submit(spec)
        assert caught.value.status == 503
        assert caught.value.code == "overloaded"
        assert caught.value.retry_after is not None
        assert app.rejected_overloaded == 1
        payload = caught.value.to_dict()
        assert payload["error"]["retry_after"] == caught.value.retry_after


class TestStickyTerminalMarks:
    def test_first_terminal_mark_wins(self):
        job = Job(id="j1", spec={})
        assert job.mark_completed({"executed": 1})
        assert not job.mark_failed("deadline_exceeded", "too late")
        assert job.state == COMPLETED
        assert job.error is None

    def test_watchdog_failure_blocks_late_completion(self):
        job = Job(id="j2", spec={})
        assert job.mark_failed("deadline_exceeded", "too late")
        assert not job.mark_completed({})
        assert job.state == FAILED
        assert job.error["code"] == "deadline_exceeded"

    def test_fault_history_is_bounded(self):
        job = Job(id="j3", spec={})
        for index in range(100):
            job.record_fault("crash", f"boom {index}")
        from repro.service.jobs import FAULT_HISTORY_LIMIT

        assert len(job.fault_history) == FAULT_HISTORY_LIMIT
        assert job.fault_history[-1]["detail"] == "boom 99"

    def test_attempts_and_history_round_trip(self):
        job = Job(id="j4", spec={}, attempts=2)
        job.record_fault("lease_expired", replica="r1")
        clone = Job.from_dict(job.to_dict())
        assert clone.attempts == 2
        assert clone.fault_history[0]["event"] == "lease_expired"

    def test_old_records_without_new_fields_still_load(self):
        payload = Job(id="j5", spec={}).to_dict()
        del payload["attempts"]
        del payload["fault_history"]
        clone = Job.from_dict(payload)
        assert clone.attempts == 0
        assert clone.fault_history == []


class TestPoisonQuarantine:
    def test_quarantine_writes_full_record(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = Job(id="badjob", spec={"points": []}, state=RUNNING,
                  attempts=3)
        job.record_fault("crash", "synthetic")
        job.mark_failed("poisoned", "quarantined after 3 attempts")
        store.quarantine_job(job)
        path = os.path.join(str(tmp_path), "jobs", "quarantine",
                            "badjob.json")
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["error"]["code"] == "poisoned"
        assert record["fault_history"]
        # ``quarantined`` counts undecodable records; ``jobs.poisoned``
        # counts poisoned jobs.
        assert store.quarantined == 0
        # The primary record stays, terminal, for /jobs queries.
        primary = store.load("badjob")
        assert primary is not None
        assert primary.state == FAILED

    def test_job_poisoned_on_resume_is_not_an_unreadable_record(self, tmp_path):
        job = Job(id="poisonjob000", spec={"points": []}, state=RUNNING,
                  attempts=POISON_ATTEMPTS)
        JobStore(str(tmp_path)).save(job)
        messages = []
        app = ServiceApp(cache_dir=str(tmp_path), progress=messages.append)
        app.start()
        try:
            assert app.get_job(job.id).error["code"] == "poisoned"
            assert app.job_store.quarantined == 0
            assert app.metrics()["jobs"]["poisoned"] == 1
            assert app.metrics()["job_store"]["quarantined"] == 0
        finally:
            app.stop()
        assert not [line for line in messages if "unreadable" in line]
        assert os.path.exists(os.path.join(
            str(tmp_path), "jobs", "quarantine", f"{job.id}.json"))


class TestEnospcDegradation:
    def test_store_degrades_to_read_only(self, tmp_path):
        store = Table(open_database(str(tmp_path / "store")), "results")
        store.put("k1", b"v1")
        injector = FaultInjector([
            Fault(seam="storage.append", action="enospc", count=None),
        ])
        seams.install(injector)
        try:
            store.put("k2", b"v2")  # absorbed: flips read-only
        finally:
            seams.uninstall()
        assert store.database.read_only
        assert store.stats()["read_only"] == 1
        assert store.stats()["write_errors"] == 1
        # Reads keep working; writes are silently skipped, not raised.
        assert store.get("k1") == b"v1"
        store.put("k3", b"v3")
        assert store.get("k3") is None
        assert store.stats()["write_errors"] == 1

    def test_job_store_save_absorbs_enospc(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = Job(id="j1", spec={})
        injector = FaultInjector([
            Fault(seam="jobs.save", action="enospc", count=None),
        ])
        seams.install(injector)
        try:
            store.save(job)  # must not raise
        finally:
            seams.uninstall()
        assert store.save_errors == 1
        store.save(job)  # healthy again once the fault is gone
        assert store.load("j1") is not None


class TestComponentHealth:
    def test_healthy_components(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), max_queue_depth=4)
        health = app.health()
        assert health["status"] == "ok"
        assert health["chaos"] is False
        components = health["components"]
        assert components["storage"]["status"] == "ok"
        assert components["storage"]["writable"] is True
        assert components["queue"]["status"] == "ok"
        assert components["queue"]["max_depth"] == 4
        assert components["pool"]["status"] == "ok"

    def test_degraded_storage_degrades_health(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path))
        app.job_store.save_errors = 1
        health = app.health()
        assert health["status"] == "degraded"
        assert health["components"]["storage"]["status"] == "degraded"

    def test_read_only_trace_store_degrades_health(self, tmp_path):
        # Traces are the largest writes, so ENOSPC usually meets a trace
        # put first; the whole database turns read-only.
        app = ServiceApp(cache_dir=str(tmp_path))
        seams.install(FaultInjector([
            Fault(seam="storage.append", action="enospc", count=None),
        ]))
        try:
            app.trace_store._disk.put("k", b"v")
        finally:
            seams.uninstall()
        health = app.health()
        assert health["status"] == "degraded"
        storage = health["components"]["storage"]
        assert storage["status"] == "degraded"
        assert storage["writable"] is False
        assert storage["write_errors"] == 1

    def test_saturated_queue_degrades_health(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), max_queue_depth=1)
        app.submit({"points": [{"benchmark": "gcc",
                                "config": {"max_instructions": 300}}]})
        health = app.health()
        assert health["status"] == "degraded"
        assert health["components"]["queue"]["status"] == "saturated"
