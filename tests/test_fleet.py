"""Job leases and the replica fleet over one shared cache directory.

* leases conflict until they expire, renewal never takes a lease back
  from a thief, and release is owner-scoped;
* two live replicas never execute a point twice, and a replica killed
  mid-job has its lease expire and the job stolen and completed by a
  surviving replica, with the dead replica's finished points served
  from the shared cache.

Child processes use the ``spawn`` start method: the parent runs service
threads, and forking a threaded process can deadlock the child.
"""

import json
import multiprocessing as mp
import os
import time

import pytest

from repro.obs.prometheus import parse as parse_prometheus
from repro.service.app import ServiceApp
from repro.service.fleet import LeaseManager
from repro.service.jobs import COMPLETED, RUNNING, JobStore

_MP = mp.get_context("spawn")


def _wait_for(condition, timeout, message):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if condition():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {message}")



# ----------------------------------------------------------------------
# spawn-safe child entry point (must be a module-level picklable)
# ----------------------------------------------------------------------


def _victim_replica_main(cache_dir, spec_json, ready_path):
    """A doomed service replica: submit one job, run it, await SIGKILL."""
    app = ServiceApp(
        cache_dir=cache_dir, jobs=1, job_concurrency=1,
        replica_id="victim", lease_ttl=1.0, fleet_poll_interval=0.25,
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
# fleet: work-stealing and overlapping jobs
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
        # No replica executes a point twice.  Points are not deduped
        # across replicas while in flight, so overlapping jobs may each
        # simulate a shared point once: the fleet total lies between
        # unique and twice that, and both jobs return the same result.
        assert totals_a["executed"] <= unique
        assert totals_b["executed"] <= unique
        executed = totals_a["executed"] + totals_b["executed"]
        assert unique <= executed <= 2 * unique
        assert (app_a.job_result(job_a.id)["result"]
                == app_b.job_result(job_b.id)["result"])
        # And the replicas' own registries sum to the same (what CI
        # asserts over HTTP): points in the JSON, latency in the scrape.
        metrics = [app.metrics() for app in (app_a, app_b)]
        assert {m["replica"]["id"] for m in metrics} == {"fleet-a", "fleet-b"}
        assert sum(m["points"]["executed"] for m in metrics) == executed
        assert sum(m["points"]["completed"] for m in metrics) >= 2 * unique
        latency = sum(
            sample.value
            for app in (app_a, app_b)
            for sample in parse_prometheus(app.prometheus_text())[
                "repro_point_simulate_seconds"
            ]
            if sample.name == "repro_point_simulate_seconds_count"
        )
        assert latency == executed

    def test_dead_replica_job_is_stolen_and_completed(self, tmp_path):
        cache = str(tmp_path / "cache")
        ready_path = str(tmp_path / "victim-job-id")
        survivor = ServiceApp(cache_dir=cache, jobs=1, job_concurrency=1,
                              replica_id="survivor", lease_ttl=1.0,
                              fleet_poll_interval=0.5)
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
        # Every point of the stolen job is present in the shared store:
        # whatever the victim stored was a cache hit, and the survivor
        # executed the rest.
        totals = survivor.engine.totals()
        assert totals["executed"] + totals["cached"] >= job.points["unique"]