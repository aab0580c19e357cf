"""SIGTERM drain while a search job is mid-rung.

A real ``python -m repro.service serve`` process is SIGTERMed while a
config-space search is between rungs' point evaluations.  The drain
contract: the in-flight job finishes before the process exits (exit
code 0, terminal record on disk), and every rung result it computed is
persisted — a later service on the same cache tree re-runs the same
search entirely from the store, with ``executed == 0``.
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

SEARCH_PAYLOAD = {"search": {
    "space": {"kind": "single-banked", "read_ports": [2, 3],
              "write_ports": [2, 3]},
    "benchmarks": ["gcc"],
    "instructions": 6000,
    "rungs": 1,
}}


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


def test_sigterm_drain_mid_rung_search_reused_on_resume(tmp_path):
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

        job_id = client.search(SEARCH_PAYLOAD["search"])["id"]

        def mid_rung() -> bool:
            record = client.status(job_id)
            return (record.get("state") == "running"
                    and int(record.get("points", {}).get("completed", 0)) >= 1)

        assert _wait(mid_rung, timeout=120.0), \
            "search never reached mid-rung (running with >= 1 point done)"

        # SIGTERM mid-rung: serve must drain (finish the job), not drop it.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=300.0) == 0

        # The drained job is terminal *on disk* with its full result.
        drained = JobStore(cache).load(job_id)
        assert drained.state == COMPLETED, drained.error
        drained_frontier = [point["label"] for point in
                           drained.result["report"]["frontier"]]
        assert drained_frontier
        assert int(drained.counters["executed"]) > 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)

    # Resume on the same cache tree: the same search re-runs entirely
    # from the drained rung results — zero points executed.
    app = ServiceApp(cache_dir=cache, jobs=1, job_concurrency=1)
    app.start()
    try:
        resumed = app.submit(SEARCH_PAYLOAD)
        deadline = time.monotonic() + 120.0
        while not resumed.terminal and time.monotonic() < deadline:
            time.sleep(0.05)
        assert resumed.state == COMPLETED, resumed.error
        assert int(resumed.counters["executed"]) == 0
        frontier = [point["label"] for point in
                    resumed.result["report"]["frontier"]]
        assert frontier == drained_frontier
    finally:
        app.stop(drain=True, timeout=60.0)
