"""SIGTERM drain while a points job is mid-run.

A real ``python -m repro.service serve`` process is SIGTERMed while an
explicit-points job is between point evaluations.  The drain contract:
the in-flight job finishes before the process exits (exit code 0,
terminal record on disk), and every point it computed is persisted — a
later service on the same cache tree answers the same submission
entirely from the store, with ``executed == 0``, at admission.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import repro
from repro.service import ServiceApp
from repro.service.client import ServiceClient
from repro.service.jobs import COMPLETED, JobStore

#: Four single-banked port configurations on gcc: enough points that the
#: job is still running after its first one completes.
POINTS_PAYLOAD = {"points": [
    {
        "benchmark": "gcc",
        "architecture": f"single-banked/{reads}R{writes}W",
        "factory": {"type": "SingleBankedFactory",
                    "parameters": {"read_ports": reads,
                                   "write_ports": writes}},
        "config": {"max_instructions": 6000},
    }
    for reads in (2, 3) for writes in (2, 3)
]}


def _serve_env() -> dict:
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(repro.__file__))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (pkg_root + os.pathsep + existing
                         if existing else pkg_root)
    return env


def _wait(predicate, timeout: float, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def _ipcs(result: dict) -> list:
    return [entry["stats"]["committed_instructions"] / entry["stats"]["cycles"]
            for entry in result["points"]]


def test_sigterm_drain_mid_job_reused_on_resume(tmp_path):
    cache = str(tmp_path / "cache")
    port_file = str(tmp_path / "serve.port")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--port", "0", "--port-file", port_file,
         "--cache-dir", cache, "--jobs", "1", "--job-concurrency", "1",
         "--quiet"],
        env=_serve_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        assert _wait(lambda: os.path.exists(port_file)
                     and os.path.getsize(port_file) > 0, timeout=30.0), \
            "serve never wrote its port file"
        with open(port_file, "r", encoding="utf-8") as handle:
            port = int(handle.readline().strip())
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)

        job_id = client.submit(POINTS_PAYLOAD)["id"]

        def mid_job() -> bool:
            record = client.status(job_id)
            points = record.get("points", {})
            return (record.get("state") == "running"
                    and 1 <= int(points.get("completed", 0))
                    < int(points.get("unique", 0)))

        assert _wait(mid_job, timeout=120.0), \
            "job never reached mid-run (running with some points done)"

        # SIGTERM mid-job: serve must drain (finish the job), not drop it.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=300.0) == 0

        # The drained job is terminal *on disk* with its full result.
        drained = JobStore(cache).load(job_id)
        assert drained.state == COMPLETED, drained.error
        assert int(drained.counters["executed"]) == len(POINTS_PAYLOAD["points"])
        drained_ipcs = _ipcs(drained.result)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)

    # Resume on the same cache tree: every point is stored, so the same
    # submission is answered at admission with zero points executed.
    app = ServiceApp(cache_dir=cache, jobs=1, job_concurrency=1)
    app.start()
    try:
        resumed = app.submit(POINTS_PAYLOAD)
        assert resumed.state == COMPLETED, resumed.error
        assert int(resumed.counters["executed"]) == 0
        assert _ipcs(resumed.result) == drained_ipcs
    finally:
        app.stop(drain=True, timeout=60.0)
