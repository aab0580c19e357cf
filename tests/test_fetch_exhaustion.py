"""Stream exhaustion as plain frontend state.

``exhausted`` and ``blocked`` are plain attributes of the live fetch unit
and of the trace replayer, not properties.  These tests pin the one
subtle case — an I-cache miss that pushes back the stream's last
instruction — and the fetch events a short recording produces, which
must stay those of the property-based frontend, with the ``EXHAUSTS``
flag on the same event.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import INT_LOGICAL_REGISTERS, DynamicInstruction
from repro.isa.opcodes import OpClass
from repro.memsys.cache import CacheConfig, CacheModel
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimulationStats
from repro.trace import record_trace
from repro.trace.schema import EXHAUSTS
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload


def _alu(seq, pc):
    return DynamicInstruction(
        seq=seq, op_class=OpClass.INT_ALU, dest=INT_LOGICAL_REGISTERS[1], pc=pc
    )


def _fetch(unit, cycle):
    """The group ``unit`` fetches in ``cycle``."""
    group = []
    unit.fetch_into(group, SimulationStats(), cycle)
    return group


def _fetch_unit(stream):
    icache = CacheModel(
        CacheConfig(
            size_bytes=4096,
            associativity=2,
            line_bytes=64,
            miss_latency=6,
            dirty_miss_latency=6,
            writeback=False,
        )
    )
    return FetchUnit(
        iter(stream), icache, GSharePredictor(num_entries=1024), BranchTargetBuffer(64)
    )


def test_pushed_back_last_instruction_keeps_the_stream_live():
    # The last instruction sits on its own I-cache line, so the group that
    # reaches it misses and pushes it back.
    stream = [_alu(0, 0x1000), _alu(1, 0x1040)]
    fetch = _fetch_unit(stream)
    assert _fetch(fetch, 0) == []  # cold miss on the first line
    assert not fetch.exhausted

    cycle = 1
    group = _fetch(fetch, cycle)
    while not group:
        cycle += 1
        group = _fetch(fetch, cycle)
    assert [fetched.seq for fetched in group] == [0]
    # Instruction 1 was read and pushed back: nothing is exhausted yet.
    assert not fetch.exhausted

    delivered = []
    while not delivered:
        cycle += 1
        assert not fetch.exhausted
        delivered = _fetch(fetch, cycle)
    assert [fetched.seq for fetched in delivered] == [1]
    # The same call read past the end once the last instruction was in.
    assert fetch.exhausted
    assert _fetch(fetch, cycle + 10) == []


def test_blocked_is_a_plain_attribute():
    fetch = _fetch_unit([])
    assert "blocked" in vars(fetch) and "exhausted" in vars(fetch)
    fetch.block_on_branch(4)
    assert fetch.blocked
    fetch.branch_resolved(4, 9)
    assert not fetch.blocked


#: (event count, index of the EXHAUSTS event, SHA-256 of the event list)
#: of a 400-instruction recording, taken with the property-based frontend.
RECORDED_EVENTS = {
    "gcc": (207, 206, "18292548af665031adc29e2b2f02e6687b17507f00f804562d85eb2f1bbeeb5d"),
    "fpppp": (67, 66, "56a1804ebe64a6cc50224a179eb4b66e95fab43900b0c5d39498129f0701c121"),
}


@pytest.mark.parametrize("name", sorted(RECORDED_EVENTS))
def test_recorded_fetch_events_are_unchanged(name):
    stream = list(SyntheticWorkload(get_profile(name)).instructions(400))
    workload_id = {"benchmark": name, "instructions": 400}
    trace = record_trace(name, stream, ProcessorConfig(max_instructions=400), workload_id)
    events = [list(event) for event in trace.events]
    exhausting = [index for index, event in enumerate(events) if event[4] & EXHAUSTS]
    digest = hashlib.sha256(json.dumps(events).encode()).hexdigest()
    assert (len(events), exhausting[0], digest) == RECORDED_EVENTS[name]
    assert exhausting == [len(events) - 1]
