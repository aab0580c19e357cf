"""Unit tests for the fetch unit."""

from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import DynamicInstruction, INT_LOGICAL_REGISTERS
from repro.isa.opcodes import OpClass
from repro.memsys.cache import CacheConfig, CacheModel
from repro.pipeline.stats import SimulationStats


def _alu(seq, pc):
    return DynamicInstruction(seq=seq, op_class=OpClass.INT_ALU,
                              dest=INT_LOGICAL_REGISTERS[1], pc=pc)


def _branch(seq, pc, taken, target=0x5000):
    return DynamicInstruction(seq=seq, op_class=OpClass.BRANCH,
                              pc=pc, branch_taken=taken, branch_target=target)


def _fetch(unit, cycle):
    """The group ``unit`` fetches in ``cycle``."""
    group = []
    unit.fetch_into(group, SimulationStats(), cycle)
    return group


def _make_fetch(stream, width=8):
    icache = CacheModel(CacheConfig(size_bytes=4096, associativity=2, line_bytes=64,
                                    miss_latency=6, dirty_miss_latency=6, writeback=False))
    return FetchUnit(iter(stream), icache, GSharePredictor(num_entries=1024),
                     BranchTargetBuffer(num_entries=64), width=width)


class TestFetchGrouping:
    def test_fetches_up_to_width(self):
        stream = [_alu(i, 0x1000 + 4 * i) for i in range(20)]
        fetch = _make_fetch(stream, width=8)
        stats = SimulationStats()
        queue = []
        fetch.fetch_into(queue, stats, 0)
        # The very first access misses the I-cache (cold), so nothing comes
        # out at cycle 0; after the refill a full group is delivered.
        assert queue == []
        for cycle in range(1, 10):
            fetch.fetch_into(queue, stats, cycle)
        assert stats.fetched_instructions == len(queue) >= 8

    def test_stops_at_taken_branch(self):
        stream = [_alu(0, 0x1000), _branch(1, 0x1004, taken=True), _alu(2, 0x5000)]
        fetch = _make_fetch(stream)
        _fetch(fetch, 0)                      # cold miss
        group = _fetch(fetch, 10)
        assert [f.seq for f in group] == [0, 1]

    def test_exhaustion(self):
        stream = [_alu(0, 0x1000)]
        fetch = _make_fetch(stream)
        _fetch(fetch, 0)
        for cycle in range(1, 20):
            _fetch(fetch, cycle)
        assert fetch.exhausted

    def test_icache_miss_stalls(self):
        stream = [_alu(i, 0x1000 + 4 * i) for i in range(4)]
        fetch = _make_fetch(stream)
        assert _fetch(fetch, 0) == []          # compulsory miss
        refill = fetch.icache.config.miss_latency - fetch.icache.config.hit_latency
        assert _fetch(fetch, refill) == []     # still refilling
        assert [f.seq for f in _fetch(fetch, refill + 1)] == [0, 1, 2, 3]


class TestBranchHandling:
    def test_mispredicted_branch_blocks_fetch(self):
        # A never-seen branch that is taken: the predictor's initial weakly
        # taken counters predict taken, but the BTB misses; a not-taken
        # prediction on a taken branch (or vice versa) blocks fetch.  Use a
        # branch that is NOT taken while the counters say taken.
        stream = [_branch(0, 0x1000, taken=False), _alu(1, 0x1004), _alu(2, 0x1008)]
        fetch = _make_fetch(stream)
        _fetch(fetch, 0)
        group = _fetch(fetch, 10)
        assert len(group) == 1 and group[0].mispredicted
        assert fetch.blocked
        assert _fetch(fetch, 11) == []
        fetch.branch_resolved(0, 20)
        assert not fetch.blocked
        assert [f.seq for f in _fetch(fetch, 21)] == [1, 2]

    def test_correctly_predicted_branch_does_not_block(self):
        # Initial 2-bit counters are weakly taken, so a taken branch is
        # predicted correctly; only the BTB-miss bubble applies.
        stream = [_branch(0, 0x1000, taken=True), _alu(1, 0x5000), _alu(2, 0x5004)]
        fetch = _make_fetch(stream)
        _fetch(fetch, 0)
        group = _fetch(fetch, 10)
        assert group and not group[0].mispredicted
        assert not fetch.blocked

    def test_branch_resolved_ignores_older_seq(self):
        stream = [_branch(0, 0x1000, taken=False), _alu(1, 0x1004)]
        fetch = _make_fetch(stream)
        _fetch(fetch, 0)
        _fetch(fetch, 10)
        assert fetch.blocked
        fetch.branch_resolved(-5, 12)   # unrelated older branch
        assert fetch.blocked

    def test_block_on_branch_keeps_oldest(self):
        fetch = _make_fetch([])
        fetch.block_on_branch(10)
        fetch.block_on_branch(20)
        fetch.branch_resolved(10, 5)
        assert not fetch.blocked
