"""Guard: Python-level calls per committed instruction on the core's hot path.

A Python call costs far more than the bytecodes around it, and the
pipeline stages do the per-instruction bookkeeping of the window, the
ROB, the load/store queue and the functional units in place rather
than through one-caller methods.  This test counts the ``"call"`` events
``sys.setprofile`` sees while one point is simulated (processor built
and run; the stream is generated beforehand) and fails when a point
needs more calls per committed instruction than its ceiling.

Comprehension and generator frames are left out: CPython 3.12 inlines
list, dict and set comprehensions (PEP 709), so counting them would make
3.10/3.11 and 3.12 disagree.  The points are the ``point-live``
benchmark's: gcc, swim and fpppp on the 1-cycle single-banked file, the
4-bank 2R/2W banked file and the 4R/2W two-bus register file cache.

Each ceiling sits just above the count of the code that set it (since
fetch builds the in-flight record, the live fetch path makes no
separate front-end record per instruction); the count before the
stages took over the bookkeeping is recorded beside it.
A change that adds calls on purpose raises the ceiling and says why.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments.common import (
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

INSTRUCTIONS = 2000

ARCHITECTURES = {
    "mono-1c": SingleBankedFactory(latency=1, bypass_levels=1, name="1-cycle single-banked"),
    "banked-4x2r2w": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2),
    "rfc-4r2w-2bus": RegisterFileCacheFactory(
        upper_read_ports=4, upper_write_ports=2, lower_write_ports=4, buses=2),
}

#: (benchmark, architecture) -> (ceiling, count when the window, ROB,
#: LSQ and FU pool still had per-instruction methods).
CEILINGS = {
    ("gcc", "mono-1c"): (17.8, 29.61),
    ("gcc", "banked-4x2r2w"): (22.2, 32.24),
    ("gcc", "rfc-4r2w-2bus"): (27.4, 37.54),
    ("swim", "mono-1c"): (13.8, 24.41),
    ("swim", "banked-4x2r2w"): (18.5, 27.27),
    ("swim", "rfc-4r2w-2bus"): (25.3, 34.05),
    ("fpppp", "mono-1c"): (14.1, 24.97),
    ("fpppp", "banked-4x2r2w"): (27.8, 36.62),
    ("fpppp", "rfc-4r2w-2bus"): (46.6, 55.83),
}

#: Frames CPython 3.12 inlines (comprehensions) or that only wrap an
#: iteration (generator expressions).
UNCOUNTED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def calls_per_instruction(profile: str, architecture: str) -> float:
    stream = list(SyntheticWorkload(get_profile(profile)).instructions(INSTRUCTIONS * 3 // 2))
    factory = ARCHITECTURES[architecture]
    config = ProcessorConfig(max_instructions=INSTRUCTIONS)
    # A first run takes any one-time cost (lazy imports, caches) out of
    # the counted one.
    simulate(stream, factory, config, benchmark_name=profile)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name not in UNCOUNTED:
            calls += 1

    sys.setprofile(count)
    try:
        stats = simulate(stream, factory, config, benchmark_name=profile)
    finally:
        sys.setprofile(None)
    assert stats.committed_instructions == INSTRUCTIONS
    return calls / stats.committed_instructions


@pytest.mark.parametrize("profile, architecture", sorted(CEILINGS))
def test_calls_per_instruction_stay_under_the_ceiling(profile, architecture):
    ceiling, before = CEILINGS[(profile, architecture)]
    measured = calls_per_instruction(profile, architecture)
    assert measured <= ceiling, (
        f"{profile} on {architecture}: {measured:.2f} Python calls per committed "
        f"instruction, ceiling {ceiling} (it was {before} before the stages did "
        "the window, ROB, LSQ and FU bookkeeping in place)"
    )
