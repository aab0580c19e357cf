"""Guard: Python-level calls of one cached figure job in the service.

Nine in ten jobs of the ``service-warm`` benchmark resubmit a figure plan
whose every point is stored, so that path sets the service's median
latency.  Two guards count the ``"call"`` events a profile function
sees while one such job goes through:

* in-process, on the calling thread, the way the HTTP layer drives the
  app: ``submit`` (answered at admission), the JSON body of its record,
  one status record, and ``job_result`` with its JSON body;
* over loopback HTTP, on every thread (client, server handler, the
  app's own): a ``ServiceClient`` submit, status and result against
  ``build_server``, the fewest calls of three such jobs.  No frame may
  come from the :mod:`email` package, whose header parser
  ``http.server`` and ``http.client`` run on every message.

Each guard fails when a plan needs more calls than its ceiling.  The
plans are the benchmark's: figure6, figure7 and value_reuse over gcc and
swim at 2000 instructions with 500 of warm-up.  Two cached jobs run
first, so the process-wide plan and store-key memos and the app's
rendered result are warm, as they are in a long-lived service.
Comprehension and generator frames are left out, as in
``tests/test_hot_path_calls.py``.

Each ceiling sits about 10% above the count of the code that set it;
the count of an earlier version is recorded beside it.  A change that
adds calls on purpose raises the ceiling and says why.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.service import ServiceApp, ServiceClient, build_server
from repro.service.jobs import COMPLETED
from repro.service.server import json_body

SETTINGS = {"instructions": 2000, "warmup_instructions": 500,
            "benchmarks": ["gcc", "swim"]}

#: plan -> (ceiling, count when each JSON encode built its own encoder
#: and the job save went through the segment log).
CEILINGS = {
    "figure6": (365, 426),
    "figure7": (340, 404),
    "value_reuse": (315, 382),
}

#: plan -> (ceiling over HTTP, the same earlier count).
HTTP_CEILINGS = {
    "figure6": (515, 560),
    "figure7": (490, 541),
    "value_reuse": (465, 519),
}

UNCOUNTED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def cached_job(app: ServiceApp, spec: dict) -> str:
    job = app.submit(spec)
    json_body(job.to_dict())
    json_body(app.get_job(job.id).to_dict())
    json_body(app.job_result(job.id))
    return job.state


def http_job(client: ServiceClient, spec: dict) -> str:
    job = client.submit(spec)
    client.status(job["id"])
    client.result(job["id"])
    return job["state"]


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    service = ServiceApp(cache_dir=str(tmp_path_factory.mktemp("service")), jobs=1)
    service.start()
    yield service
    service.stop()


class Profile:
    """A profile function that counts calls, on any thread, while on."""

    def __init__(self) -> None:
        self.on = False
        self.calls = []  # list.append is atomic: threads may race

    def __call__(self, frame, event, arg) -> None:
        if self.on and event == "call" and frame.f_code.co_name not in UNCOUNTED:
            self.calls.append(frame.f_globals.get("__name__", ""))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A client and a loopback server whose every thread is profiled."""
    profile = Profile()
    # Every thread started while the server runs, the per-connection
    # handler threads included, is profiled.
    threading.setprofile(profile)
    try:
        service = ServiceApp(cache_dir=str(tmp_path_factory.mktemp("http")), jobs=1)
        server = build_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        yield client, profile
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.stop()
    finally:
        threading.setprofile(None)


def warm(app: ServiceApp, spec: dict) -> None:
    """Compute the plan, then run two cached jobs through the app."""
    first = app.submit(spec)
    deadline = time.monotonic() + 120
    while not first.terminal and time.monotonic() < deadline:
        time.sleep(0.02)
    assert first.state == COMPLETED
    for _ in range(2):
        assert cached_job(app, spec) == COMPLETED


@pytest.mark.parametrize("figure", sorted(CEILINGS))
def test_cached_job_calls_stay_under_the_ceiling(app, figure):
    spec = {"figure": figure, "settings": SETTINGS}
    warm(app, spec)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name not in UNCOUNTED:
            calls += 1

    sys.setprofile(count)
    try:
        state = cached_job(app, spec)
    finally:
        sys.setprofile(None)
    assert state == COMPLETED
    ceiling, before = CEILINGS[figure]
    assert calls <= ceiling, (
        f"one cached {figure} job made {calls} Python calls, ceiling {ceiling} "
        f"(it was {before} when each JSON encode built its own encoder and "
        "the job save went through the segment log)"
    )


@pytest.mark.parametrize("figure", sorted(HTTP_CEILINGS))
def test_cached_job_over_http_stays_under_the_ceiling(served, figure):
    client, profile = served
    spec = {"figure": figure, "settings": SETTINGS}
    job = client.submit(spec)
    assert client.watch(job["id"], interval=0.02, timeout=120)["state"] == COMPLETED
    for _ in range(2):
        assert http_job(client, spec) == COMPLETED
    counts = []
    for _ in range(3):
        profile.calls.clear()
        sys.setprofile(profile)
        profile.on = True
        try:
            state = http_job(client, spec)
        finally:
            profile.on = False
            sys.setprofile(None)
        assert state == COMPLETED
        email = sorted({name for name in profile.calls if name.split(".")[0] == "email"})
        assert email == [], f"a cached job over HTTP ran email code: {email}"
        counts.append(len(profile.calls))
    # The fewest of three: a periodic thread of the app (the deadline
    # watchdog, every 0.2 s, or the fleet poller) may tick inside one.
    calls = min(counts)
    ceiling, before = HTTP_CEILINGS[figure]
    assert calls <= ceiling, (
        f"one cached {figure} job over HTTP made {calls} Python calls on all "
        f"threads, ceiling {ceiling} (it was {before} when each JSON encode "
        "built its own encoder and the job save went through the segment log)"
    )
