"""Unit tests for the load/store queue.

The core is stream driven: every load and store carries its address, so
the queue is the processor's occupancy count (``lsq_occupancy``) plus
its index of the queued stores by address (``stores_at``), kept by the
dispatch and commit stages.  These tests run those stages on hand-built
instructions (see ``staged_pipeline.py``) or whole simulations of
hand-built streams.
"""

import pytest
from hypothesis import given, settings, strategies as st

from staged_pipeline import CommitRecorder, StagedPipeline, op

from repro.errors import SimulationError
from repro.isa.instruction import int_reg
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor, simulate
from repro.regfile.monolithic import SingleBankedRegisterFile


def _store(seq, address, data=2):
    return op(seq, OpClass.STORE, sources=[int_reg(data), int_reg(5)], mem_address=address)


def _load(seq, address, dest=3):
    return op(seq, OpClass.LOAD, dest=int_reg(dest), sources=[int_reg(5)], mem_address=address)


def _latency(entry, issue_cycle, read_stages=1):
    return entry.dest_state.ex_end_cycle - issue_cycle - read_stages + 1


class TestLSQBasics:
    def test_insert_and_full(self):
        pipe = StagedPipeline(lsq_size=2)
        dispatched = pipe.dispatch(0, _load(0, 0x100), _store(1, 0x200), _load(2, 0x300))
        assert [entry.seq for entry in dispatched] == [0, 1]
        assert pipe.processor.lsq_occupancy == 2
        assert pipe.stats.dispatch_stalls_lsq == 1
        assert pipe.processor.stores_at == {0x200: [1]}

    def test_program_order_enforced(self):
        # Every queued load and store is also in the ROB, whose
        # program-order check keeps the queue in order.
        with pytest.raises(SimulationError, match="program order"):
            simulate([_store(5, 0x200), _load(3, 0x200)], SingleBankedRegisterFile)

    def test_release_and_occupancy(self):
        stream = [_store(seq, 0x100 + 8 * (seq % 3)) if seq % 2 else _load(seq, 0x100)
                  for seq in range(40)]
        processor = Processor(stream, SingleBankedRegisterFile, ProcessorConfig(lsq_size=4))
        stats = processor.run()
        assert stats.committed_instructions == 40
        assert stats.dispatch_stalls_lsq > 0
        # Commit released every load and store.
        assert processor.lsq_occupancy == 0
        assert processor.stores_at == {}


class TestOrderingRules:
    def test_load_not_blocked_by_younger_store(self):
        pipe = StagedPipeline()
        load, store = pipe.dispatch(0, _load(0, 0x200), _store(1, 0x200))
        pipe.issue(1)
        assert load.issued and store.issued
        # The younger store does not forward: the load reads the D-cache.
        assert pipe.stats.loads_forwarded == 0
        assert _latency(load, issue_cycle=1) == 1 + pipe.processor.dcache.config.miss_latency

    def test_store_without_address_raises_at_dispatch(self):
        store = _store(0, 0x200)
        store.mem_address = None
        with pytest.raises(SimulationError, match="no address"):
            simulate([store], SingleBankedRegisterFile)


class TestForwarding:
    def test_forwarding_from_matching_store(self):
        pipe = StagedPipeline()
        store, load = pipe.dispatch(0, _store(0, 0x200), _load(1, 0x200))
        pipe.issue(1)
        assert store.issued and load.issued
        assert pipe.stats.loads_forwarded == 1
        assert _latency(load, issue_cycle=1) == 2  # address generation + forward

    def test_no_forwarding_from_different_address(self):
        pipe = StagedPipeline()
        _, load = pipe.dispatch(0, _store(0, 0x200), _load(1, 0x300))
        assert pipe.processor.forwarding_store(load.seq, 0x300) is None
        pipe.issue(1)
        assert pipe.stats.loads_forwarded == 0
        assert _latency(load, issue_cycle=1) == 1 + pipe.processor.dcache.config.miss_latency

    def test_youngest_older_store_wins(self):
        pipe = StagedPipeline()
        pipe.dispatch(0, _store(0, 0x200), _store(1, 0x200, data=3), _load(2, 0x200, dest=4))
        assert pipe.processor.stores_at == {0x200: [0, 1]}
        assert pipe.processor.forwarding_store(2, 0x200) == 1

    def test_no_forwarding_from_younger_store(self):
        pipe = StagedPipeline()
        pipe.dispatch(0, _load(0, 0x200), _store(1, 0x200))
        assert pipe.processor.forwarding_store(0, 0x200) is None
        assert pipe.stats.loads_forwarded == 0

    def test_store_to_load_forwarding_in_a_hand_built_stream(self):
        # A store, a load from its address and a load from elsewhere; the
        # expected cycles are those the simulator gave when the queue
        # still kept one record per load and store.
        stream = [
            op(0, dest=int_reg(2)),
            _store(1, 0x200),
            _load(2, 0x200, dest=3),
            _load(3, 0x300, dest=4),
        ]
        recorder = CommitRecorder()
        stats = simulate(stream, SingleBankedRegisterFile, commit_observer=recorder)
        assert stats.loads_forwarded == 1
        assert (stats.cycles, stats.dcache_hits, stats.dcache_misses) == (18, 0, 2)
        loads = {entry.seq: entry for entry, _ in recorder.commits if entry.seq >= 2}
        # Both loads issue in cycle 8: the forwarded one takes 2 cycles,
        # the other a D-cache miss (1 + 6).
        assert (loads[2].dest_state.ex_end_cycle, loads[2].complete_cycle) == (10, 11)
        assert (loads[3].dest_state.ex_end_cycle, loads[3].complete_cycle) == (15, 16)
        assert [cycle for _, cycle in recorder.commits] == [11, 12, 12, 17]


class _IndexScan:
    """A commit observer that checks the queue against a scan of the ROB.

    The ROB holds exactly the loads and stores the queue does: both take
    them at dispatch and drop them at commit, in program order.
    """

    def __init__(self, processor) -> None:
        self.processor = processor
        self.stores_committed = 0

    def on_commit(self, entry, cycle) -> None:
        queued = [e.instruction for e in self.processor.rob
                  if e.instruction.op_class in (OpClass.LOAD, OpClass.STORE)]
        index = {}
        for instruction in queued:
            if instruction.op_class is OpClass.STORE:
                index.setdefault(instruction.mem_address, []).append(instruction.seq)
        processor = self.processor
        assert processor.lsq_occupancy == len(queued)
        assert processor.stores_at == index
        if entry.instruction.op_class is OpClass.STORE:
            self.stores_committed += 1
            # The store that left was older than every store still queued
            # at its address.
            assert all(seq > entry.seq for seq in index.get(entry.instruction.mem_address, []))

    def final_digest(self) -> str:
        return ""


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ordering_check_matches_a_linear_scan(data):
    """Random streams of loads, stores and adds over three addresses: after
    every commit the queue's occupancy and per-address store index match a
    linear scan of the in-flight instructions."""
    stream = []
    for seq in range(data.draw(st.integers(1, 40), label="length")):
        kind = data.draw(st.sampled_from(["load", "store", "add"]), label="kind")
        address = data.draw(st.sampled_from([0x100, 0x108, 0x110]), label="address")
        if kind == "load":
            stream.append(_load(seq, address, dest=data.draw(st.integers(1, 4), label="dest")))
        elif kind == "store":
            stream.append(_store(seq, address, data=data.draw(st.integers(1, 4), label="data")))
        else:
            stream.append(op(seq, dest=int_reg(data.draw(st.integers(1, 4), label="dest")),
                             sources=[int_reg(data.draw(st.integers(1, 4), label="src"))]))
    processor = Processor(stream, SingleBankedRegisterFile,
                          ProcessorConfig(lsq_size=3, rob_size=6))
    scan = _IndexScan(processor)
    processor.commit_observer = scan
    stats = processor.run()
    assert stats.committed_instructions == len(stream)
    assert scan.stores_committed == sum(i.op_class is OpClass.STORE for i in stream)
    assert processor.lsq_occupancy == 0 and processor.stores_at == {}
