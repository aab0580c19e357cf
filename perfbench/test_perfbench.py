"""Tests of the benchmark's own logic: statistics, seeds, checks, tracing.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from benchlib import hostspeed, plans  # noqa: E402
from benchlib.checks import DigestBook, OutputMismatch  # noqa: E402
from benchlib.stats import FAILED, OK, REFUSED, OpLog, tail  # noqa: E402
from benchlib.tracer import Tracer, instrument  # noqa: E402
from benchlib.workloads import run_job  # noqa: E402
from repro.pipeline.processor import Processor  # noqa: E402
from repro.service.client import ServiceError  # noqa: E402


class TestTailRule:
    def test_highest_percentile_with_ten_samples_beyond(self):
        result = tail(range(1, 601))
        assert (result.percentile, result.value) == (95.0, 570)
        assert (result.samples, result.beyond) == (600, 30)

    def test_exactly_ten_beyond_qualifies(self):
        assert tail(range(1000)).percentile == 99.0
        assert tail(range(999)).percentile == 95.0
        assert tail(range(40)).describe() == {
            "percentile": 75.0, "samples": 40, "beyond": 10}
        assert tail(range(39)).percentile == 50.0

    def test_small_sets_report_the_median_rank_and_how_thin_it_is(self):
        result = tail([3.0, 1.0, 2.0])
        assert (result.value, result.percentile, result.beyond) == (2.0, 50.0, 1)

    def test_empty_sample_set_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestFailureAccounting:
    def test_failed_and_refused_operations_count_against_attempted(self):
        log = OpLog(timeout_s=60.0)
        for _ in range(8):
            log.record(0.010)
        log.record(0.5, FAILED)
        log.record(0.0, REFUSED)
        assert (log.attempted, log.failed, log.fail_frac) == (10, 2, 0.2)

    def test_failures_miss_the_tail(self):
        log = OpLog(timeout_s=60.0)
        for _ in range(29):
            log.record(0.010)
        for _ in range(11):
            log.record(0.0, REFUSED)
        assert log.p50_ms() == pytest.approx(10.0)
        assert log.tail().value == pytest.approx(60_000.0)
        assert log.tail().percentile == 75.0

    def test_refused_submission(self):
        class Refusing:
            def submit(self, spec):
                raise ServiceError("queue is full", code="overloaded", status=503)

        assert run_job(Refusing(), {}, defaultdict(list)).outcome == REFUSED

    def test_failed_job(self):
        class Failing:
            def submit(self, spec):
                return {"id": "job"}

            def status(self, job_id):
                return {"id": job_id, "state": "failed"}

        http = defaultdict(list)
        outcome = run_job(Failing(), {}, http)
        assert (outcome.outcome, outcome.polls) == (FAILED, 1)
        assert len(http["submit"]) == len(http["status"]) == 1

    def test_completed_job(self):
        class Completing:
            def submit(self, spec):
                return {"id": "job"}

            def status(self, job_id):
                return {"id": job_id, "state": "completed"}

            def result(self, job_id):
                return {"id": job_id, "result": {}}

        assert run_job(Completing(), {}, defaultdict(list)).outcome == OK


class TestSeeds:
    """A seed changes the inputs, never the amount of work."""

    def test_point_live(self):
        first, second = plans.point_live_plan(1), plans.point_live_plan(2)
        assert first == plans.point_live_plan(1)
        assert first != second
        assert [sorted(r) for r in first] == [sorted(r) for r in second]

    def test_sweep_cold(self):
        first, second = plans.sweep_plan(1), plans.sweep_plan(2)
        assert [p.id for p in first] != [p.id for p in second]
        assert sorted(p.id for p in first) == sorted(p.id for p in second)
        for planned in (first, second):
            # The recording run doubles as the same exact point for every
            # seed, so no seed records or replays more than another.
            leaders = [p.id for p in planned
                       if p.point.architecture == "mono-1c"
                       and p.point.sampling is None]
            starts = [planned[0].id, planned[16].id]
            assert sorted(leaders) == sorted(starts)

    def test_service_warm(self):
        def shape(blocks):
            counts = defaultdict(int)
            for block in blocks:
                for job in block:
                    budget = job.spec.get("points", [{}])[0].get(
                        "config", {}).get("max_instructions")
                    recording = budget not in (None, plans.SERVICE_SETTINGS["instructions"])
                    counts[(job.kind, job.name if job.kind == "cached" else recording)] += 1
            return dict(counts)

        first, second = plans.service_plan(1), plans.service_plan(2)
        names = [[job.name for job in block] for block in first]
        assert names != [[job.name for job in block] for block in second]
        assert shape(first) == shape(second)
        fresh = [job.name for block in first for job in block if job.kind == "fresh"]
        assert len(fresh) == len(set(fresh)) == plans.SERVICE_BLOCKS


class TestOutputChecks:
    def test_every_planned_output_has_a_recorded_digest(self):
        table = DigestBook.load().table
        replay, recording = plans.fresh_pools()
        ids = ([plans.point_live_id(b, a) for b in plans.POINT_LIVE_BENCHMARKS
                for a in plans.POINT_LIVE_ARCHITECTURES]
               + [p.id for p in plans.sweep_plan(0)]
               + [f"service-warm/plan/{name}" for name in plans.SERVICE_PLANS]
               + list(replay) + list(recording))
        assert sorted(ids) == sorted(table)

    def test_missing_digest_is_a_mismatch(self):
        with pytest.raises(OutputMismatch, match="no recorded digest"):
            DigestBook({}).check("point-live/none", {})

    def test_digest_mismatch_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(plans, "POINT_LIVE_INSTRUCTIONS", 300)
        monkeypatch.setattr(plans, "POINT_LIVE_ROTATIONS", 1)
        monkeypatch.setattr(plans, "SETUP_REPEATS", 1)
        wrong = {plans.point_live_id(b, a): "0" * 64
                 for b in plans.POINT_LIVE_BENCHMARKS
                 for a in plans.POINT_LIVE_ARCHITECTURES}
        monkeypatch.setattr(DigestBook, "load",
                            classmethod(lambda cls, path=None: cls(wrong)))
        status = run.main(["--workload", "point-live", "--seed", "0",
                           "--seconds", "1"])
        assert status == 1
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] is False

    def test_missing_sources_exit_nonzero_without_a_result(self, monkeypatch,
                                                           tmp_path, capsys):
        monkeypatch.setattr(run, "SRC", str(tmp_path))
        assert run.main(["--workload", "sweep-cold", "--seed", "0",
                         "--seconds", "1"]) == 2
        assert capsys.readouterr().out == ""


class TestTracer:
    def test_self_time_excludes_child_spans(self):
        tracer = Tracer("test")
        inner = tracer.wrap("inner", lambda: sum(range(20_000)), None)
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)], None)
        with tracer.enabled():
            outer()
        outer()  # untraced
        assert tracer.calls == {"inner": 3, "outer": 1}
        assert math.isclose(tracer.self_time["outer"],
                            tracer.busy["outer"] - tracer.busy["inner"])
        spans = [span for span in tracer.spans if span]
        parents = {span["name"]: span["parent"] for span in spans}
        assert parents["outer"] is None
        assert parents["inner"] == next(s["id"] for s in spans if s["name"] == "outer")

    def test_instrument_restores_every_entry_point(self):
        original = Processor.run
        tracer = Tracer("test")
        with instrument(tracer):
            assert Processor.run is not original
        assert Processor.run is original
        assert tracer.missing == []


class TestHostSpeed:
    def test_slowdown_is_the_median_kernel_time_over_the_reference(self):
        host = hostspeed.HostSpeed(reference_s=0.1)
        host.samples = [0.3, 0.1, 0.2]
        assert host.slowdown() == pytest.approx(2.0)

    def test_a_call_is_scaled_by_the_kernel_runs_around_it(self):
        host = hostspeed.HostSpeed(reference_s=0.01)
        # The host ran the kernel 1.5x and 2.5x slower than the reference
        # on either side of a 0.4 s call: at reference speed it takes 0.2 s.
        assert host.rescale(0.4, 0.015, 0.025) == pytest.approx(0.2)

    def test_service_kernel_round_trips_and_stops(self, tmp_path):
        host = hostspeed.for_workload("service-warm", str(tmp_path))
        host.sample()
        host.close()
        host.kernel.thread.join(timeout=5)
        assert not host.kernel.thread.is_alive()
        assert len(host.samples) == 1
