"""The chaos scenario matrix.

Each scenario is a function ``f(result, seed, quick)`` that boots real
service machinery inside a :class:`~repro.chaos.harness.scenario_env`,
injects one family of faults, and records invariant violations on the
:class:`~repro.chaos.harness.ScenarioResult`.  Scenarios never raise on
a *robustness* failure — they call ``result.violate`` — so one broken
invariant doesn't hide the others.  A scenario that crashes outright is
itself counted as a violation by the matrix runner.

Determinism: no scenario draws random numbers; its fault list fixes
which seam calls fail, and how.  Wall-clock still varies run to run, so
scenarios assert *outcomes* (terminal states, causes, counters), never
timings.

``SCENARIOS`` maps name -> function; ``QUICK_SCENARIOS`` is the subset
run by ``python -m repro.chaos --quick`` (CI) and includes the
replica-SIGKILL and ENOSPC scenarios required by the robustness
contract.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import repro
from repro.chaos.faults import Fault, FaultInjector
from repro.chaos.harness import (
    ScenarioResult,
    canonical_result_bytes,
    check_event_timeline,
    check_terminal_record,
    scenario_env,
    wait_until,
    watch_bounded,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import POISON_ATTEMPTS, RUNNING, Job, JobStore


def _points_spec(n: int = 1, instructions: int = 400,
                 deadline_s=None, priority: int = 0) -> dict:
    """An explicit-points submission of ``n`` distinct tiny points."""
    points = [
        {
            "benchmark": "gcc",
            "architecture": f"chaos/{index}",
            "config": {"max_instructions": instructions + index},
        }
        for index in range(n)
    ]
    spec = {"points": points, "priority": priority}
    if deadline_s is not None:
        spec["deadline_s"] = deadline_s
    return spec


def _run_one_job(env: scenario_env, result: ScenarioResult, spec: dict,
                 **service_kwargs):
    """Boot a service, run one job to terminal, return (sut, record)."""
    sut = env.service(**service_kwargs)
    job = sut.client.submit(spec)
    record = watch_bounded(sut.client, job["id"], result)
    return sut, record


# ----------------------------------------------------------------------
# baseline identity: fault-free chaos run == plain run, byte for byte
# ----------------------------------------------------------------------


def scenario_baseline_identity(result: ScenarioResult, seed: int,
                               quick: bool) -> None:
    """A no-fault injector must not perturb results at all.

    Runs the same job twice on fresh cache trees — once with no seams
    installed, once with an installed injector holding zero faults —
    and compares the canonical bytes of the result payloads.  Also
    checks the seams actually fired (the injector counted calls), so
    identity is proven *through* the instrumented path, not around it.
    """
    spec = _points_spec(n=2, instructions=300 if quick else 1500)

    with scenario_env() as env:
        sut, record = _run_one_job(env, result, spec,
                                   cache_dir=env.cache_dir("plain"))
        if record is None or record.get("state") != "completed":
            result.violate(f"plain run did not complete: {record}")
            return
        # The /result record carries the (random) job id; identity is on
        # the simulation payload itself.
        plain_bytes = canonical_result_bytes(
            sut.client.result(record["id"]).get("result")
        )

    injector = FaultInjector([])
    with scenario_env(injector) as env:
        sut, record = _run_one_job(env, result, spec,
                                   cache_dir=env.cache_dir("chaos"))
        if record is None or record.get("state") != "completed":
            result.violate(f"instrumented run did not complete: {record}")
            return
        chaos_bytes = canonical_result_bytes(
            sut.client.result(record["id"]).get("result")
        )
        check_terminal_record(record, result)
        check_event_timeline(env.cache_dir("chaos"), result)

    if plain_bytes != chaos_bytes:
        result.violate("fault-free instrumented run is not byte-identical "
                       "to the plain run")
    for seam in ("http.response", "engine.point", "storage.append"):
        calls = injector.calls(seam)
        if calls == 0:
            result.violate(f"seam {seam!r} never fired during the "
                           f"instrumented run — identity proven around, "
                           f"not through, the seams")
        result.note(f"seam {seam}: {calls} calls, 0 faults")
    result.faults_injected = len(injector.log())


# ----------------------------------------------------------------------
# disk full: sticky read-only degradation, jobs still complete
# ----------------------------------------------------------------------


def scenario_enospc(result: ScenarioResult, seed: int, quick: bool) -> None:
    """ENOSPC on every write: storage degrades, execution continues."""
    injector = FaultInjector([
        Fault(seam="storage.append", action="enospc", at=1, count=None),
        Fault(seam="jobs.save", action="enospc", at=2, count=None),
    ])
    with scenario_env(injector) as env:
        sut, record = _run_one_job(
            env, result, _points_spec(n=2, instructions=300),
            cache_dir=env.cache_dir("full-disk"),
        )
        if record is None:
            return
        check_terminal_record(record, result)
        if record.get("state") != "completed":
            result.violate(f"job should complete from memory tiers on a "
                           f"full disk; got {record.get('state')}: "
                           f"{record.get('error')}")
            return
        health = sut.client.health()
        if health.get("status") != "degraded":
            result.violate(f"health status should be 'degraded' on ENOSPC; "
                           f"got {health.get('status')!r}")
        storage = (health.get("components") or {}).get("storage") or {}
        if storage.get("writable", True):
            result.violate("health.components.storage.writable should be "
                           "false after ENOSPC")
        metrics = sut.client.metrics()
        results_stats = (metrics.get("storage") or {}).get("results") or {}
        if not results_stats.get("read_only"):
            result.violate("metrics.storage.results.read_only should be set")
        # Dedup survives degradation: the same spec again is all cache hits.
        again = sut.client.submit(_points_spec(n=2, instructions=300))
        record2 = watch_bounded(sut.client, again["id"], result)
        if record2 is not None:
            check_terminal_record(record2, result)
            executed = int((record2.get("counters") or {}).get("executed", -1))
            if record2.get("state") == "completed" and executed != 0:
                result.violate(f"resubmission on a degraded store should be "
                               f"served from memory (executed == 0); "
                               f"executed {executed}")
        save_errors = (metrics.get("job_store") or {}).get("save_errors")
        check_event_timeline(env.cache_dir("full-disk"), result)
        result.note(f"write errors absorbed: "
                    f"storage={results_stats.get('write_errors')}, "
                    f"job-store={save_errors}")
        result.faults_injected = len(injector.log())


# ----------------------------------------------------------------------
# worker pathologies: slow, hung (deadline), crashing
# ----------------------------------------------------------------------


def scenario_slow_worker(result: ScenarioResult, seed: int,
                         quick: bool) -> None:
    """Slow point execution delays completion but corrupts nothing."""
    injector = FaultInjector([
        Fault(seam="engine.point", action="delay", at=1, count=None,
              delay_s=0.1 if quick else 0.25),
    ])
    with scenario_env(injector) as env:
        sut, record = _run_one_job(
            env, result, _points_spec(n=2, instructions=300),
            cache_dir=env.cache_dir("slow"),
        )
        if record is None:
            return
        check_terminal_record(record, result)
        if record.get("state") != "completed":
            result.violate(f"slow worker should still complete; got "
                           f"{record.get('state')}: {record.get('error')}")
        check_event_timeline(env.cache_dir("slow"), result)
        result.note(f"{injector.calls('engine.point')} slowed point starts")
        result.faults_injected = len(injector.log())


def scenario_hung_worker_deadline(result: ScenarioResult, seed: int,
                                  quick: bool) -> None:
    """A hung worker is bounded by the job deadline; the lease is freed."""
    hang_s = 4.0 if quick else 8.0
    injector = FaultInjector([
        Fault(seam="engine.point", action="hang", at=1, count=None,
              delay_s=hang_s),
    ])
    with scenario_env(injector) as env:
        sut = env.service(cache_dir=env.cache_dir("hung"))
        job = sut.client.submit(
            _points_spec(n=2, instructions=300, deadline_s=1.0)
        )
        record = watch_bounded(sut.client, job["id"], result,
                               timeout=hang_s + 30.0)
        if record is None:
            return
        check_terminal_record(record, result,
                              allowed_failures=["deadline_exceeded"])
        if record.get("state") != "failed":
            result.violate(f"hung job should fail with deadline_exceeded; "
                           f"got {record.get('state')}")
            return
        if not wait_until(lambda: sut.app.leases.holder(job["id"]) is None,
                          timeout=10.0):
            result.violate("lease not released after deadline kill")
        metrics = sut.client.metrics()
        if not (metrics.get("jobs") or {}).get("deadline_failures"):
            result.violate("metrics.jobs.deadline_failures not incremented")
        # Even a deadline-killed job leaves a whole span timeline: the
        # hung worker's execute span ends (with an error) once it wakes.
        check_event_timeline(env.cache_dir("hung"), result)
        result.note("deadline watchdog fired while the worker hung; "
                    "lease released")
        result.faults_injected = len(injector.log())


def scenario_crash_worker(result: ScenarioResult, seed: int,
                          quick: bool) -> None:
    """A crashing point execution fails the job with a structured cause."""
    injector = FaultInjector([
        Fault(seam="engine.point", action="crash", at=1, count=None,
              message="chaos: worker crash"),
    ])
    with scenario_env(injector) as env:
        sut, record = _run_one_job(
            env, result, _points_spec(n=2, instructions=300),
            cache_dir=env.cache_dir("crash"),
        )
        if record is None:
            return
        check_terminal_record(record, result,
                              allowed_failures=["execution_error"])
        if record.get("state") != "failed":
            result.violate(f"crashing worker should fail the job; got "
                           f"{record.get('state')}")
        check_event_timeline(env.cache_dir("crash"), result)
        result.note(f"cause: {(record.get('error') or {}).get('code')}")
        result.faults_injected = len(injector.log())


# ----------------------------------------------------------------------
# fleet faults: replica SIGKILL mid-lease, skewed heartbeat clocks
# ----------------------------------------------------------------------


def scenario_replica_sigkill(result: ScenarioResult, seed: int,
                             quick: bool) -> None:
    """SIGKILL a real serve subprocess mid-job; a survivor steals it.

    The victim is a genuine ``python -m repro.service serve`` process
    (ephemeral port, short lease TTL) sharing a cache tree with an
    in-process survivor replica.  The kill is a hard SIGKILL — no
    drain, no goodbye — so recovery rides entirely on lease expiry and
    the survivor's fleet poller.
    """
    lease_ttl = 2.0
    with scenario_env() as env:
        shared = env.cache_dir("shared")
        port_file = os.path.join(env.root, "victim.port")
        pkg_root = os.path.dirname(os.path.dirname(repro.__file__))
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = pkg_root + (
            os.pathsep + child_env["PYTHONPATH"]
            if child_env.get("PYTHONPATH") else ""
        )
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", "0", "--port-file", port_file,
             "--cache-dir", shared, "--jobs", "1",
             "--job-concurrency", "1",
             "--lease-ttl", str(lease_ttl),
             "--replica-id", "victim", "--quiet"],
            env=child_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            if not wait_until(
                lambda: os.path.exists(port_file)
                and os.path.getsize(port_file) > 0,
                timeout=30.0,
            ):
                result.violate("victim replica never wrote its port file")
                return
            with open(port_file, "r", encoding="utf-8") as handle:
                victim_port = int(handle.readline().strip())
            victim_client = ServiceClient(
                f"http://127.0.0.1:{victim_port}", timeout=10.0
            )
            # Enough work that the kill lands mid-job, small enough that
            # the re-run stays fast.
            spec = _points_spec(n=3, instructions=4000 if quick else 12000)
            job = victim_client.submit(spec)
            job_id = job["id"]
            if not wait_until(
                lambda: victim_client.status(job_id).get("state") == "running",
                timeout=30.0,
            ):
                result.violate("victim never started running the job")
                return
            survivor = env.service(
                cache_dir=shared, replica_id="survivor",
                lease_ttl=lease_ttl, fleet_poll_interval=0.2,
            )
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10.0)
            record = watch_bounded(survivor.client, job_id, result,
                                   timeout=90.0)
            if record is None:
                return
            # Completion is the expected outcome; a structured 'poisoned'
            # verdict is tolerated only if repeated steals hit the cap.
            check_terminal_record(record, result,
                                  allowed_failures=["poisoned"])
            if record.get("state") == "completed":
                stolen = survivor.app.stolen_jobs + survivor.app.resumed_jobs
                if victim_client_saw_completion(record):
                    result.note("victim finished before the kill landed; "
                                "survivor only observed")
                elif stolen < 1:
                    result.violate("job completed but the survivor neither "
                                   "stole nor resumed it — who ran it?")
                if survivor.app.stolen_jobs > 3:
                    result.violate(f"steal loop: job stolen "
                                   f"{survivor.app.stolen_jobs} times")
                result.note(f"survivor stole {survivor.app.stolen_jobs}, "
                            f"resumed {survivor.app.resumed_jobs}")
            else:
                result.note(f"job ended {record.get('state')} with cause "
                            f"{(record.get('error') or {}).get('code')}")
            result.faults_injected = 1  # the SIGKILL itself
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=10.0)


def victim_client_saw_completion(record: dict) -> bool:
    """True when the job finished before the victim died (no steal)."""
    history = record.get("fault_history") or []
    return not any(entry.get("event") in ("lease_expired", "resume_requeue")
                   for entry in history)


def scenario_clock_skew(result: ScenarioResult, seed: int,
                        quick: bool) -> None:
    """One replica's lease clock runs fast; jobs still terminate sanely.

    The skewed replica believes every lease is ancient and steals
    eagerly; the sticky terminal marks and the poison cap must keep
    that from becoming a steal livelock or double completion.
    """
    lease_ttl = 3.0
    skew_s = 2.0 * lease_ttl
    with scenario_env() as env:
        shared = env.cache_dir("shared")
        steady = env.service(cache_dir=shared, replica_id="steady",
                             lease_ttl=lease_ttl, fleet_poll_interval=0.2)
        skewed = env.service(cache_dir=shared, replica_id="skewed",
                             lease_ttl=lease_ttl, fleet_poll_interval=0.2)
        skewed.app.leases.clock = lambda: time.time() + skew_s
        spec = _points_spec(n=2, instructions=2000 if quick else 6000)
        job = steady.client.submit(spec)
        record = watch_bounded(steady.client, job["id"], result,
                               timeout=90.0)
        if record is None:
            return
        # Either replica may win; a poison verdict (too many steals) is a
        # structured outcome, not a hang — both satisfy the contract.
        check_terminal_record(record, result, allowed_failures=["poisoned"])
        total_steals = steady.app.stolen_jobs + skewed.app.stolen_jobs
        if total_steals > 6:
            result.violate(f"clock skew caused a steal storm: "
                           f"{total_steals} steals of one job")
        result.note(f"outcome {record.get('state')}; steals: "
                    f"steady={steady.app.stolen_jobs} "
                    f"skewed={skewed.app.stolen_jobs}")
        result.faults_injected = 1  # the skewed clock


# ----------------------------------------------------------------------
# network faults and backpressure
# ----------------------------------------------------------------------


def scenario_http_flaky(result: ScenarioResult, seed: int,
                        quick: bool) -> None:
    """Dropped/reset/slow HTTP responses are absorbed by client retries."""
    injector = FaultInjector([
        Fault(seam="http.response", action="drop", at=2),
        Fault(seam="http.response", action="reset", at=3),
        Fault(seam="http.response", action="delay", at=4, delay_s=0.3),
    ])
    with scenario_env(injector) as env:
        sut = env.service(
            cache_dir=env.cache_dir("flaky"),
            client_kwargs={"retries": 6, "retry_base": 0.05,
                           "retry_cap": 0.5, "timeout": 10.0},
        )
        job = sut.client.submit(_points_spec(n=1, instructions=300))
        record = watch_bounded(sut.client, job["id"], result)
        if record is None:
            return
        check_terminal_record(record, result)
        if record.get("state") != "completed":
            result.violate(f"job should complete despite flaky transport; "
                           f"got {record.get('state')}")
        if sut.client.retried < 1:
            result.violate("client never retried — the injected drops "
                           "were not exercised")
        # Even if the dropped POST was re-sent as a duplicate job, the
        # store dedupes: fleet-wide executed never exceeds unique points.
        metrics = sut.client.metrics()
        points = metrics.get("points") or {}
        executed = points.get("executed")
        unique = points.get("unique")
        if (isinstance(executed, int) and isinstance(unique, int)
                and executed > unique):
            result.violate(f"fleet executed {executed} > unique {unique}")
        check_event_timeline(env.cache_dir("flaky"), result)
        result.note(f"client retried {sut.client.retried} time(s) across "
                    f"{len(injector.log())} transport faults")
        result.faults_injected = len(injector.log())


def scenario_overload(result: ScenarioResult, seed: int,
                      quick: bool) -> None:
    """A full queue returns structured 503s; patient clients get through."""
    injector = FaultInjector([
        Fault(seam="engine.point", action="delay", at=1, count=None,
              delay_s=0.4),
    ])
    with scenario_env(injector) as env:
        sut = env.service(
            cache_dir=env.cache_dir("busy"),
            max_queue_depth=1,
            client_kwargs={"retries": 0},
        )
        raw = sut.client  # no retries: sees the 503 as the server sent it
        first = raw.submit(_points_spec(n=2, instructions=300))
        if not wait_until(
            lambda: raw.status(first["id"]).get("state") == "running",
            timeout=30.0,
        ):
            result.violate("first job never started running")
            return
        queued = raw.submit(_points_spec(n=2, instructions=600))
        overloaded = None
        try:
            raw.submit(_points_spec(n=2, instructions=900))
        except ServiceError as error:
            overloaded = error
        if overloaded is None:
            result.violate("submit into a full queue was not rejected")
        else:
            if overloaded.status != 503 or overloaded.code != "overloaded":
                result.violate(f"expected 503 overloaded; got "
                               f"{overloaded.status} {overloaded.code}")
            if overloaded.retry_after is None:
                result.violate("503 overloaded carried no Retry-After")
        # A retrying client waits out the backpressure and gets through.
        patient = ServiceClient(sut.url, timeout=10.0, retries=8,
                                retry_base=0.2, retry_cap=2.0,
                                retry_budget_s=60.0)
        third = patient.submit(_points_spec(n=1, instructions=900))
        for job_id in (first["id"], queued["id"], third["id"]):
            record = watch_bounded(patient, job_id, result)
            if record is not None:
                check_terminal_record(record, result)
        metrics = patient.metrics()
        rejected = (metrics.get("queue") or {}).get("rejected_overloaded")
        if not rejected:
            result.violate("metrics.queue.rejected_overloaded not counted")
        check_event_timeline(env.cache_dir("busy"), result)
        result.note(f"server rejected {rejected} submit(s); patient client "
                    f"retried {patient.retried} time(s) and got through")
        result.faults_injected = len(injector.log())


# ----------------------------------------------------------------------
# poison jobs
# ----------------------------------------------------------------------


def scenario_poison_quarantine(result: ScenarioResult, seed: int,
                               quick: bool) -> None:
    """A job that keeps dying is quarantined with its fault history."""
    with scenario_env() as env:
        shared = env.cache_dir("shared")
        # Forge the on-disk record of a job that already burned through
        # its attempts on replicas that are now gone: state RUNNING, no
        # live lease, attempts at the poison threshold.
        store = JobStore(shared)
        job = Job(id="poisonjob0001",
                  spec=_points_spec(n=1, instructions=300),
                  state=RUNNING, attempts=POISON_ATTEMPTS)
        job.points = {"requested": 1, "unique": 1, "completed": 0}
        job.record_fault("crash", "synthetic pre-history", replica="ghost-1")
        job.record_fault("lease_expired", "synthetic pre-history",
                         replica="ghost-2")
        store.save(job)

        sut = env.service(cache_dir=shared, lease_ttl=2.0,
                          fleet_poll_interval=0.1)
        record = None

        def _terminal() -> bool:
            nonlocal record
            record = sut.client.status("poisonjob0001")
            return record.get("state") in ("completed", "failed")

        if not wait_until(_terminal, timeout=30.0):
            result.violate("poison job never reached a terminal state")
            return
        check_terminal_record(record, result, allowed_failures=["poisoned"])
        if record.get("state") != "failed":
            result.violate(f"poison job should fail, got "
                           f"{record.get('state')}")
            return
        quarantine_path = os.path.join(shared, "jobs", "quarantine",
                                       "poisonjob0001.json")
        if not os.path.exists(quarantine_path):
            result.violate("no quarantine record written for poisoned job")
        else:
            with open(quarantine_path, "r", encoding="utf-8") as handle:
                quarantined = json.load(handle)
            history = quarantined.get("fault_history") or []
            if len(history) < 2:
                result.violate("quarantine record lost the fault history")
        metrics = sut.client.metrics()
        if not (metrics.get("jobs") or {}).get("poisoned"):
            result.violate("metrics.jobs.poisoned not counted")
        result.note(f"quarantined after {record.get('attempts')} attempts "
                    f"with {len(record.get('fault_history') or [])} "
                    f"fault-history entries")
        result.faults_injected = 1  # the forged crash history


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


#: Every scenario, in execution order.
SCENARIOS = {
    "baseline-identity": scenario_baseline_identity,
    "enospc": scenario_enospc,
    "slow-worker": scenario_slow_worker,
    "hung-worker": scenario_hung_worker_deadline,
    "crash-worker": scenario_crash_worker,
    "replica-sigkill": scenario_replica_sigkill,
    "clock-skew": scenario_clock_skew,
    "http-flaky": scenario_http_flaky,
    "overload": scenario_overload,
    "poison": scenario_poison_quarantine,
}

#: The CI subset: every fault family, sized for speed.  Must include
#: replica-sigkill and enospc (the robustness contract pins them).
QUICK_SCENARIOS = (
    "baseline-identity",
    "enospc",
    "hung-worker",
    "crash-worker",
    "replica-sigkill",
    "http-flaky",
    "overload",
    "poison",
)
