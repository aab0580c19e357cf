"""Guard: Python-level calls of one cached figure job in the service.

Nine in ten jobs of the ``service-warm`` benchmark resubmit a figure plan
whose every point is stored, so that path sets the service's median
latency.  This test counts the ``"call"`` events ``sys.setprofile`` sees
on the calling thread while one such job goes through the app the way
the HTTP layer drives it: ``submit`` (answered at admission), the JSON
body of its record, one status record, and ``job_result`` with its JSON
body.  It fails when a plan needs more calls than its ceiling.

The plans are the benchmark's: figure6, figure7 and value_reuse over
gcc and swim at 2000 instructions with 500 of warm-up.  Two cached jobs
run first, so the process-wide plan and store-key memos and the app's
rendered result are warm, as they are in a long-lived service.
Comprehension and generator frames are left out, as in
``tests/test_hot_path_calls.py``.

Each ceiling sits about 15% above the count of the code that set it;
the count before plans and rendered results were memoised and bodies
were C-encoded is recorded beside it.  A change that adds calls on
purpose raises the ceiling and says why.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.service import ServiceApp
from repro.service.jobs import COMPLETED
from repro.service.server import json_body

SETTINGS = {"instructions": 2000, "warmup_instructions": 500,
            "benchmarks": ["gcc", "swim"]}

#: plan -> (ceiling, count when every job planned twice, rendered its
#: result afresh and the bodies were indented JSON).
CEILINGS = {
    "figure6": (655, 3273),
    "figure7": (630, 2715),
    "value_reuse": (550, 2146),
}

UNCOUNTED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def cached_job(app: ServiceApp, spec: dict) -> str:
    job = app.submit(spec)
    json_body(job.to_dict())
    json_body(app.get_job(job.id).to_dict())
    json_body(app.job_result(job.id))
    return job.state


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    service = ServiceApp(cache_dir=str(tmp_path_factory.mktemp("service")), jobs=1)
    service.start()
    yield service
    service.stop()


@pytest.mark.parametrize("figure", sorted(CEILINGS))
def test_cached_job_calls_stay_under_the_ceiling(app, figure):
    spec = {"figure": figure, "settings": SETTINGS}
    first = app.submit(spec)
    deadline = time.monotonic() + 120
    while not first.terminal and time.monotonic() < deadline:
        time.sleep(0.02)
    assert first.state == COMPLETED
    for _ in range(2):
        assert cached_job(app, spec) == COMPLETED
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
        f"(it was {before} before plans and rendered results were memoised "
        "and bodies were C-encoded)"
    )
