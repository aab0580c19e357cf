"""ServiceApp core: admission, execution, dedup, resume, failure paths.

Everything here runs HTTP-free against :class:`ServiceApp` (and, for
single-flight, directly against :class:`SweepEngine`), which keeps the
failure injection and concurrency control deterministic.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.common import ExperimentSettings, SimulationCache
from repro.experiments.runner import run_experiments
from repro.experiments import figure6, scheduler
from repro.experiments.scheduler import SimulationPoint, SweepEngine
from repro.experiments.store import ResultStore
from repro.obs.events import read_events, unfinished_spans
from repro.service import ServiceApp
from repro.service.app import EVENTS_SUBDIR
from repro.service.jobs import (
    COMPLETED, FAILED, QUEUED, RUNNING, Job, JobStore, new_job_id,
)
from repro.service.spec import ApiError, validate_submission
from repro.storage import ShardedStore
from repro.storage import segment as seg

#: A figure submission small enough for the full job to take ~a second.
FIGURE_SPEC = {
    "figure": "figure6",
    "settings": {
        "instructions": 200,
        "warmup_instructions": 50,
        "benchmarks": ["gcc"],
    },
}

POINT_SPEC = {
    "points": [
        {
            "benchmark": "gcc",
            "architecture": "single-banked/1c",
            "factory": {"type": "SingleBankedFactory",
                        "parameters": {"latency": 1}},
            "config": {"max_instructions": 200},
        },
        {
            "benchmark": "gcc",
            "architecture": "rfc/default",
            "factory": {"type": "RegisterFileCacheFactory"},
            "config": {"max_instructions": 200},
        },
    ]
}


def wait_for(job_getter, timeout: float = 60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = job_getter()
        if job.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError("job did not reach a terminal state in time")


@pytest.fixture
def app(tmp_path):
    service = ServiceApp(cache_dir=str(tmp_path), jobs=1, job_concurrency=2)
    service.start()
    yield service
    service.stop()


class TestSubmissionValidation:
    def test_rejects_non_object_body(self):
        with pytest.raises(ApiError) as excinfo:
            validate_submission([1, 2, 3])
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_rejects_figure_and_points_together(self):
        with pytest.raises(ApiError) as excinfo:
            validate_submission({"figure": "figure6", "points": []})
        assert excinfo.value.status == 422
        assert excinfo.value.code == "invalid_spec"

    def test_rejects_unknown_figure(self):
        with pytest.raises(ApiError) as excinfo:
            validate_submission({"figure": "figure99"})
        assert excinfo.value.status == 422
        assert excinfo.value.code == "unknown_figure"
        assert "figure99" in excinfo.value.message

    def test_rejects_unknown_settings_field(self):
        with pytest.raises(ApiError) as excinfo:
            validate_submission({"figure": "figure6",
                                 "settings": {"instrs": 100}})
        assert excinfo.value.code == "invalid_settings"

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(ApiError) as excinfo:
            validate_submission({"figure": "figure6",
                                 "settings": {"benchmarks": ["bogus"]}})
        assert excinfo.value.status == 422
        assert "bogus" in excinfo.value.message

    def test_rejects_boolean_priority(self):
        with pytest.raises(ApiError) as excinfo:
            validate_submission({**FIGURE_SPEC, "priority": True})
        assert excinfo.value.code == "invalid_spec"

    def test_rejects_unknown_factory_type(self):
        spec = {"points": [{"benchmark": "gcc",
                            "factory": {"type": "WarpDriveFactory"}}]}
        with pytest.raises(ApiError) as excinfo:
            validate_submission(spec)
        assert excinfo.value.code == "invalid_point"
        assert "WarpDriveFactory" in excinfo.value.message

    def test_rejects_unknown_config_field(self):
        spec = {"points": [{"benchmark": "gcc",
                            "config": {"warp_factor": 9}}]}
        with pytest.raises(ApiError) as excinfo:
            validate_submission(spec)
        assert excinfo.value.code == "invalid_point"
        assert "warp_factor" in excinfo.value.message

    def test_rejects_unknown_point_benchmark(self):
        spec = {"points": [{"benchmark": "not-a-benchmark"}]}
        with pytest.raises(ApiError) as excinfo:
            validate_submission(spec)
        assert excinfo.value.code == "invalid_point"

    @pytest.mark.parametrize("factory, config", [
        ({"type": "RegisterFileCacheFactory", "parameters": {"caching": "bogus"}}, {}),
        ({"type": "SingleBankedFactory",
          "parameters": {"latency": 1, "bypass_levels": 3}}, {}),
        ({"type": "OneLevelBankedFactory", "parameters": {"num_banks": 0}}, {}),
        ({"type": "SingleBankedFactory", "parameters": {"latency": "2"}}, {}),
        ({}, {"max_instructions": "abc"}),
    ], ids=["unknown-caching", "bypass-deeper-than-file", "no-banks",
            "string-latency", "string-max-instructions"])
    def test_rejects_a_point_that_cannot_build(self, factory, config):
        # Each of these used to be queued and fail at execution, or to
        # escape admission as a TypeError.
        spec = {"points": [{"benchmark": "gcc", "factory": factory,
                            "config": config}]}
        with pytest.raises(ApiError) as excinfo:
            validate_submission(spec)
        assert excinfo.value.status == 422
        assert excinfo.value.code == "invalid_point"
        assert excinfo.value.message.startswith("points[0].")

    @pytest.mark.parametrize("parameters, config", [
        ({"upper_read_ports": 2.5}, {}),
        ({"upper_read_ports": True}, {}),
        ({"lower_write_ports": 2.5}, {}),
        ({"buses": True}, {}),
        ({}, {"max_instructions": 2.5}),
        ({}, {"max_instructions": True}),
        ({}, {"num_int_physical": 16}),
        ({}, {"fetch_width": 1e9}),
        ({}, {"collect_occupancy": "yes"}),
    ], ids=["fractional-read-ports", "boolean-read-ports",
            "fractional-write-ports", "boolean-buses",
            "fractional-max-instructions", "boolean-max-instructions",
            "fewer-physical-than-logical", "float-fetch-width",
            "string-collect-occupancy"])
    def test_rejects_a_value_no_hardware_has(self, parameters, config):
        # Each of these used to be queued, and then either simulated a
        # machine that cannot exist or failed the job at execution.
        spec = {"points": [{"benchmark": "gcc",
                            "factory": {"type": "RegisterFileCacheFactory",
                                        "parameters": parameters},
                            "config": config}]}
        with pytest.raises(ApiError) as excinfo:
            validate_submission(spec)
        assert excinfo.value.status == 422
        assert excinfo.value.code == "invalid_point"
        assert excinfo.value.message.startswith("points[0].")

    @pytest.mark.parametrize("deadline_s", [float("nan"), float("inf"), 10 ** 400],
                             ids=["nan", "inf", "beyond-float"])
    def test_rejects_a_deadline_that_is_not_finite(self, deadline_s):
        for spec in (FIGURE_SPEC, POINT_SPEC):
            with pytest.raises(ApiError) as excinfo:
                validate_submission({**spec, "deadline_s": deadline_s})
            assert excinfo.value.status == 422
            assert excinfo.value.code == "invalid_spec"
            assert "deadline_s" in excinfo.value.message

    def test_valid_points_spec_builds_simulation_points(self):
        plan = validate_submission(POINT_SPEC)
        points = plan.plan_points()
        assert len(points) == 2
        assert all(isinstance(point, SimulationPoint) for point in points)
        assert points[0].config.max_instructions == 200


class TestExecution:
    def test_figure_job_completes_and_matches_runner(self, app):
        job = app.submit(FIGURE_SPEC)
        final = wait_for(lambda: app.get_job(job.id))
        assert final.state == COMPLETED
        assert final.points["completed"] == final.points["unique"] > 0
        assert final.counters["executed"] == final.points["unique"]

        # The service's answer equals the runner's answer for the plan.
        settings = ExperimentSettings(
            instructions_per_benchmark=200, warmup_instructions=50,
            benchmarks=["gcc"],
        )
        (expected,) = run_experiments(["figure6"], settings)
        expected.data.pop("elapsed_seconds", None)
        (served,) = app.job_result(job.id)["result"]["results"]
        assert served["data"] == expected.data
        assert served["body"] == expected.body

    def test_resubmission_is_served_from_cache(self, app):
        first = app.submit(FIGURE_SPEC)
        wait_for(lambda: app.get_job(first.id))
        second = app.submit(FIGURE_SPEC)
        final = wait_for(lambda: app.get_job(second.id))
        assert final.state == COMPLETED
        assert final.counters["executed"] == 0
        assert final.counters["cached"] == final.points["unique"]
        metrics = app.metrics()
        assert metrics["points"]["executed"] == first.points["unique"]
        assert metrics["result_cache"]["hit_rate"] > 0

    def test_cached_job_computes_each_store_key_once(self, app, monkeypatch):
        first = app.submit(FIGURE_SPEC)
        wait_for(lambda: app.get_job(first.id))
        calls = []
        real_key = scheduler.simulation_key

        def counting_key(*args, **kwargs):
            calls.append(args[:2])
            return real_key(*args, **kwargs)

        # A cold memo: the resubmission must derive every key itself.
        monkeypatch.setattr(scheduler, "_STORE_KEYS", {})
        monkeypatch.setattr(scheduler, "simulation_key", counting_key)
        second = app.submit(FIGURE_SPEC)
        final = wait_for(lambda: app.get_job(second.id))
        assert final.state == COMPLETED
        assert final.counters["executed"] == 0
        assert len(calls) == final.points["unique"] == len(set(calls))

    def test_cached_plan_is_planned_once_and_rendered_once(self, app, monkeypatch):
        first = app.submit(FIGURE_SPEC)
        assert wait_for(lambda: app.get_job(first.id)).state == COMPLETED
        passes = []
        real_run = figure6.run

        def counting_run(settings, cache, *args, **kwargs):
            passes.append("render" if type(cache) is SimulationCache else "plan")
            return real_run(settings, cache, *args, **kwargs)

        # A new ``run`` is a new plan-memo key, so the memo starts cold.
        monkeypatch.setattr(figure6, "run", counting_run)
        results = []
        for _ in range(3):
            job = app.submit(FIGURE_SPEC)
            assert job.state == COMPLETED
            results.append(app.job_result(job.id)["result"])
        assert passes == ["plan", "render"]
        assert results[0] == results[1] == results[2]

    def test_kept_result_still_checks_its_points(self, app, monkeypatch):
        job = app.submit(FIGURE_SPEC)
        assert wait_for(lambda: app.get_job(job.id)).state == COMPLETED
        assert app.job_result(job.id)["result"]["kind"] == "figures"
        monkeypatch.setattr(app.store, "peek", lambda key: None)
        with pytest.raises(ApiError) as excinfo:
            app.job_result(job.id)
        assert excinfo.value.code == "result_unavailable"

    def test_points_job_reports_stats(self, app):
        job = app.submit(POINT_SPEC)
        final = wait_for(lambda: app.get_job(job.id))
        assert final.state == COMPLETED
        entries = app.job_result(job.id)["result"]["points"]
        assert len(entries) == 2
        for entry in entries:
            assert entry["stats"] is not None
            assert entry["stats"]["committed_instructions"] == 200

    def test_job_result_gating(self, app):
        with pytest.raises(ApiError) as excinfo:
            app.job_result("nonexistent000")
        assert excinfo.value.status == 404
        job = app.submit(FIGURE_SPEC)
        wait_for(lambda: app.get_job(job.id))
        with pytest.raises(ApiError) as excinfo:
            app.job_result(job.id, fmt="xml")
        assert excinfo.value.status == 400
        payload = app.job_result(job.id)
        assert payload["result"]["kind"] == "figures"
        csv_text = app.job_result(job.id, fmt="csv")
        assert csv_text.startswith("experiment,metric,value")


class TestAdmissionAnswer:
    """Fully stored figure/points plans complete inside ``submit``."""

    def test_stored_plan_completes_at_admission(self, app):
        first = app.submit(FIGURE_SPEC)
        wait_for(lambda: app.get_job(first.id))
        hits_before = app.store.counters()["memory_hits"]
        second = app.submit(FIGURE_SPEC)
        assert second.state == COMPLETED
        assert second.counters["cached"] == second.points["unique"]
        assert second.points["completed"] == second.points["unique"]
        # The admission check does not count; the engine lookup does,
        # once per point, as on the executor path.
        assert (app.store.counters()["memory_hits"] - hits_before
                == second.points["unique"])
        # Rendering the result reads each point once more.
        served = app.job_result(second.id)["result"]
        assert (app.store.counters()["memory_hits"] - hits_before
                == 2 * second.points["unique"])
        assert served == app.job_result(first.id)["result"]
        assert app.get_job(second.id) is second
        assert app.queue.depth() == 0

    def test_unstarted_or_stopped_app_queues_a_stored_plan(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        app.start()
        try:
            first = app.submit(POINT_SPEC)
            wait_for(lambda: app.get_job(first.id))
        finally:
            app.stop()
        assert app.submit(POINT_SPEC).state == QUEUED
        fresh = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        assert fresh.store.peek(
            validate_submission(POINT_SPEC).plan_points()[0].store_key()
        ) is not None
        assert fresh.submit(POINT_SPEC).state == QUEUED

    def test_point_vanished_after_the_check_still_completes(
            self, app, monkeypatch):
        # Admission sees every point stored; the engine finds none.
        monkeypatch.setattr(app.store, "peek", lambda key: object())
        job = app.submit(POINT_SPEC)
        assert job.state == COMPLETED
        assert job.counters["executed"] == 2
        assert [entry["stats"]["committed_instructions"]
                for entry in app.job_result(job.id)["result"]["points"]] == [200, 200]
        assert JobStore(app.cache_dir).load(job.id).state == COMPLETED

    def test_event_log_reads_queued_running_completed(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        app.start()
        try:
            first = app.submit(POINT_SPEC)
            wait_for(lambda: app.get_job(first.id))
            job = app.submit(POINT_SPEC)
        finally:
            app.stop()
        events = [event for event in read_events(str(tmp_path / EVENTS_SUBDIR))
                  if event.get("job_id") == job.id]
        assert [event["phase"] for event in events
                if event["kind"] == "job_phase"] == [
                    "queued", "running", "completed"]
        ends = {event["span"]: event for event in events
                if event["kind"] == "span_end"}
        starts = {event["span"]: event for event in events
                  if event["kind"] == "span_start"}
        assert set(ends) == {"job", "queue.wait", "execute"}
        assert starts["execute"]["parent_span_id"] == starts["job"]["span_id"]
        assert (starts["queue.wait"]["parent_span_id"]
                == starts["job"]["span_id"])
        assert unfinished_spans(events) == []


class TestSingleFlight:
    def test_concurrent_identical_batches_simulate_once(self):
        store = ResultStore()
        engine = SweepEngine(store=store, jobs=1)
        plan = validate_submission(POINT_SPEC)
        points = plan.plan_points()
        barrier = threading.Barrier(2)
        summaries = [None, None]

        def run(slot: int) -> None:
            barrier.wait()
            summaries[slot] = engine.execute(points)

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total_executed = sum(summary["executed"] for summary in summaries)
        assert total_executed == len(points)  # the simulation ran ONCE
        assert store.counters()["stores"] == len(points)
        # Both callers nevertheless observe every result.
        for point in points:
            assert store.get(point.store_key()) is not None

    def test_concurrent_identical_submissions_execute_once(self, app):
        jobs = [app.submit(POINT_SPEC), app.submit(POINT_SPEC)]
        finals = [wait_for(lambda job=job: app.get_job(job.id))
                  for job in jobs]
        assert all(job.state == COMPLETED for job in finals)
        total_executed = sum(job.counters["executed"] for job in finals)
        assert total_executed == 2  # two unique points, one simulation each
        assert app.store.counters()["stores"] == 2


class TestFailurePaths:
    def test_broken_pool_marks_job_failed_with_cause(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1)

        def exploding_execute(points, progress=None, on_point=None):
            raise BrokenProcessPool("worker pid 1234 died")

        app.engine.execute = exploding_execute
        app.start()
        try:
            job = app.submit(FIGURE_SPEC)
            final = wait_for(lambda: app.get_job(job.id))
            assert final.state == FAILED
            assert final.error["code"] == "worker_crashed"
            assert "died" in final.error["message"]
            # The failure is durable: a fresh store sees it too.
            reloaded = JobStore(str(tmp_path)).load(job.id)
            assert reloaded.state == FAILED
            assert reloaded.error["code"] == "worker_crashed"
        finally:
            app.stop()

    def test_execution_error_marks_job_failed(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1)

        def exploding_execute(points, progress=None, on_point=None):
            raise RuntimeError("unexpected")

        app.engine.execute = exploding_execute
        app.start()
        try:
            job = app.submit(FIGURE_SPEC)
            final = wait_for(lambda: app.get_job(job.id))
            assert final.state == FAILED
            assert final.error["code"] == "internal_error"
        finally:
            app.stop()


class TestRestartResume:
    def test_queued_job_resumes_after_restart(self, tmp_path):
        # First process: admit a job but never start the executors (the
        # process "dies" with the job still queued).
        first = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        job = first.submit(FIGURE_SPEC)
        assert job.state == QUEUED
        # Second process over the same cache dir picks the job up.
        second = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        second.start()
        try:
            assert second.resumed_jobs == 1
            final = wait_for(lambda: second.get_job(job.id))
            assert final.state == COMPLETED
        finally:
            second.stop()

    def test_running_job_is_requeued_after_crash(self, tmp_path):
        first = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        job = first.submit(FIGURE_SPEC)
        # Simulate a crash mid-job: persisted state says "running".
        job.mark_running()
        first.job_store.save(job)
        second = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        second.start()
        try:
            assert second.resumed_jobs == 1
            final = wait_for(lambda: second.get_job(job.id))
            assert final.state == COMPLETED
            assert final.state != RUNNING
        finally:
            second.stop()

    def test_persisted_search_job_fails_as_invalid_spec(self, tmp_path):
        # A job log written when the service still accepted config-space
        # searches: the retired shape fails on re-validation, and the
        # executor goes on to serve the job queued behind it.
        first = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        search = Job(id=new_job_id(), spec={
            "search": {"space": "figure8", "instructions": 200},
            "priority": 0,
        })
        first.job_store.save(search)
        good = first.submit(FIGURE_SPEC)
        second = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        second.start()
        try:
            assert second.resumed_jobs == 2
            failed = wait_for(lambda: second.get_job(search.id))
            assert failed.state == FAILED
            assert failed.error["code"] == "invalid_spec"
            assert wait_for(lambda: second.get_job(good.id)).state == COMPLETED
            assert (JobStore(str(tmp_path)).load(search.id).error["code"]
                    == "invalid_spec")
        finally:
            second.stop()

    def test_corrupt_job_record_is_quarantined_not_fatal(self, tmp_path):
        first = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        good = first.submit(FIGURE_SPEC)
        # An undecodable record, then a torn tail from a dying writer.
        ShardedStore(str(tmp_path / "jobs"), num_shards=1).put(
            "badbadbadbad", b"{corrupt"
        )
        (segment,) = (tmp_path / "jobs").glob("shard-*/seg-*.log")
        with open(segment, "ab") as handle:
            handle.write(b"\x09\x00torn")
        second = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        second.start()
        try:
            assert second.job_store.quarantined == 1
            assert second.metrics()["job_store"]["quarantined"] == 1
            final = wait_for(lambda: second.get_job(good.id))
            assert final.state == COMPLETED
        finally:
            second.stop()


class TestRenderedResults:
    """A job record holds no result: :meth:`ServiceApp.job_result`
    renders it from the job's spec over the result store, in the app that
    ran the job or in a fresh one on the same cache dir."""

    def _complete_both(self, cache_dir):
        app = ServiceApp(cache_dir=cache_dir, jobs=1)
        app.start()
        try:
            jobs = [app.submit(FIGURE_SPEC), app.submit(POINT_SPEC)]
            for job in jobs:
                assert wait_for(lambda: app.get_job(job.id)).state == COMPLETED
            served = {job.id: (app.job_result(job.id),
                               app.job_result(job.id, fmt="csv"))
                      for job in jobs}
        finally:
            app.stop()
        return jobs, served

    def test_job_log_records_carry_no_result(self, tmp_path):
        jobs, _ = self._complete_both(str(tmp_path))
        records = []
        for path in glob.glob(str(tmp_path / "jobs" / "shard-*" / "seg-*.log")):
            for record in seg.scan_segment(path)[0]:
                records.append(json.loads(seg.read_data(
                    path, record.data_offset, record.data_len)))
        assert {record["id"] for record in records} == {job.id for job in jobs}
        assert COMPLETED in {record["state"] for record in records}
        assert not [record for record in records if "result" in record]

    def test_fresh_app_serves_the_same_results(self, tmp_path):
        jobs, served = self._complete_both(str(tmp_path))
        fresh = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        fresh.start()
        try:
            for job in jobs:
                assert (fresh.job_result(job.id),
                        fresh.job_result(job.id, fmt="csv")) == served[job.id]
        finally:
            fresh.stop()

    def test_lost_points_answer_result_unavailable(self, tmp_path):
        (_, points_job), _ = self._complete_both(str(tmp_path))
        shards = ShardedStore(str(tmp_path / "results"))
        for point in validate_submission(POINT_SPEC).plan_points():
            shard = shards.shard_of(point.store_key())
            shutil.rmtree(os.path.join(shards.root, f"shard-{shard:02x}"),
                          ignore_errors=True)
        fresh = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        fresh.start()
        try:
            assert fresh.get_job(points_job.id).state == COMPLETED
            for fmt in ("json", "csv"):
                with pytest.raises(ApiError) as excinfo:
                    fresh.job_result(points_job.id, fmt=fmt)
                assert excinfo.value.status == 409
                assert excinfo.value.code == "result_unavailable"
        finally:
            fresh.stop()


class TestDrain:
    def test_stop_then_start_still_executes(self, tmp_path):
        """A stopped app can be started again on the same instance."""
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        app.start()
        app.stop(drain=True)
        app.start()
        try:
            job = app.submit(FIGURE_SPEC)
            final = wait_for(lambda: app.get_job(job.id))
            assert final.state == COMPLETED
        finally:
            app.stop()

    def test_stop_drains_running_job(self, tmp_path):
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        app.start()
        job = app.submit(FIGURE_SPEC)
        deadline = time.time() + 30
        while app.get_job(job.id).state == QUEUED and time.time() < deadline:
            time.sleep(0.005)
        app.stop(drain=True)  # must wait for the in-flight job
        assert app.get_job(job.id).state in (COMPLETED, FAILED)
        assert app.get_job(job.id).state == COMPLETED


class TestSamplingAdmission:
    """The optional ``sample`` key: structured rejection, exact echo."""

    @pytest.mark.parametrize("sample, fragment", [
        ("400:1500", "window"),          # window exceeds the stride
        ("a:b", "colon-separated"),
        ("10", "STRIDE:WINDOW"),
        ({"stride": 10}, "missing required"),
        ({"stride": 10, "window": 5, "bogus": 1}, "unknown sampling"),
        (123, "must be a"),              # neither string nor object
    ])
    def test_invalid_sample_is_a_structured_422(self, sample, fragment):
        with pytest.raises(ApiError) as excinfo:
            validate_submission({**POINT_SPEC, "sample": sample})
        assert excinfo.value.status == 422
        assert excinfo.value.code == "invalid_sampling"
        assert fragment in excinfo.value.message
        # The wire form carries the code for clients to branch on.
        assert excinfo.value.to_dict()["error"]["code"] == "invalid_sampling"

    def test_valid_sample_string_echoes_the_resolved_spec(self):
        from repro.sampling import SamplingSpec

        plan = validate_submission({**POINT_SPEC, "sample": "1000:100:200"})
        expected = SamplingSpec(stride=1000, window=100, warmup=200)
        assert plan.spec["sample"] == expected.to_payload()
        assert all(point.sampling == expected for point in plan.points)
        # The echo must round-trip: restarted services re-validate the
        # persisted spec, so re-admitting it rebuilds the same plan.
        replan = validate_submission(plan.spec)
        assert replan.spec["sample"] == expected.to_payload()
        assert all(point.sampling == expected for point in replan.points)

    def test_null_and_absent_sample_mean_exact_runs(self):
        for payload in (POINT_SPEC, {**POINT_SPEC, "sample": None}):
            plan = validate_submission(payload)
            assert "sample" not in plan.spec
            assert all(point.sampling is None for point in plan.points)
