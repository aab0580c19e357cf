"""Bytes per resident instruction of generated streams and decoded traces.

Sweeps keep instruction streams and decoded traces in memory (the trace
store's memory tier holds up to ``TRACE_MEMORY_ENTRIES`` of them), so an
instruction must share what it does not own: one source tuple per
distinct source list, one int per distinct ``pc`` and
``branch_target``, one tuple per distinct fetch event, and replay
groups that add a few bytes per fetch event rather than a record per
instruction.  The sharing is checked exactly, by object identity; the
bounds are ``tracemalloc`` totals.

The bounds sit about halfway between the two layouts, measured on
CPython 3.11 at 3000 instructions of gcc, swim and fpppp: a generated
stream takes 185-199 bytes per instruction (249-256 when every
instruction owned its source tuple and ``pc``), and a decoded trace with
its replay groups built 189-209 bytes (331-399 when the decoder built an
int per ``pc`` and ``branch_target`` and a tuple per fetch event, and
the groups held one front-end record per instruction).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.pipeline.config import ProcessorConfig
from repro.trace import DecodedTrace, record_trace
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

N = 3000
PROFILES = ("gcc", "swim", "fpppp")

#: Upper bounds, in traced bytes per instruction.
STREAM_BYTES_PER_INSTRUCTION = 225
DECODED_TRACE_BYTES_PER_INSTRUCTION = 270


def _stream(profile: str) -> list:
    return list(SyntheticWorkload(get_profile(profile)).instructions(N))


def _traced_bytes(build):
    """``(result, bytes still allocated)`` of calling ``build``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, size


def _assert_shared(instructions, field: str) -> None:
    """Equal values of ``field`` are one object across ``instructions``."""
    values = [getattr(inst, field) for inst in instructions]
    assert len({id(value) for value in values}) == len(set(values)), field


@pytest.fixture(scope="module")
def traces():
    config = ProcessorConfig(max_instructions=N)
    return {
        profile: record_trace(
            profile, _stream(profile), config,
            {"kind": "synthetic-profile", "benchmark": profile, "instructions": N},
        )
        for profile in PROFILES
    }


@pytest.fixture(scope="module")
def blobs(traces):
    return {profile: trace.to_bytes() for profile, trace in traces.items()}


@pytest.mark.parametrize("profile", PROFILES)
def test_generated_stream_shares_sources_and_pcs(profile):
    stream = _stream(profile)
    _assert_shared(stream, "sources")
    _assert_shared(stream, "pc")


@pytest.mark.parametrize("profile", PROFILES)
def test_decoded_trace_shares_sources_pcs_and_targets(profile, blobs):
    instructions = DecodedTrace.from_bytes(blobs[profile]).instructions
    for field in ("sources", "pc", "branch_target"):
        _assert_shared(instructions, field)


@pytest.mark.parametrize("profile", PROFILES)
def test_recorded_and_decoded_traces_share_fetch_events(profile, traces, blobs):
    for events in (traces[profile].events,
                   DecodedTrace.from_bytes(blobs[profile]).events):
        assert len({id(event) for event in events}) == len(set(events))


@pytest.mark.parametrize("profile", PROFILES)
def test_generated_stream_bytes_per_instruction(profile):
    stream, size = _traced_bytes(lambda: _stream(profile))
    assert len(stream) == N
    assert size / N <= STREAM_BYTES_PER_INSTRUCTION, (
        f"{profile}: {size / N:.1f} bytes per generated instruction"
    )


@pytest.mark.parametrize("profile", PROFILES)
def test_decoded_trace_bytes_per_instruction(profile, blobs):
    blob = blobs[profile]

    def decode():
        trace = DecodedTrace.from_bytes(blob)
        trace.replay_groups()
        return trace

    trace, size = _traced_bytes(decode)
    assert len(trace) == N
    assert size / N <= DECODED_TRACE_BYTES_PER_INSTRUCTION, (
        f"{profile}: {size / N:.1f} bytes per decoded instruction, "
        "replay groups built"
    )
