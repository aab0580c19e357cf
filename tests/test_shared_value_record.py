"""One record per live value: a source's value state is its operand access.

Dispatch puts each source's :class:`~repro.execute.scoreboard.ValueState`
into the entry's ``accesses``, and an issue attempt writes its read plan
onto that state.  An instruction that reads one register twice plans and
counts the same record twice, exactly as two separate accesses did.  The
prefetch-first-pair hook reads the waiter list the producer's issue just
popped, so only ready caching keeps the window's consumer index.
"""

import pytest

from staged_pipeline import StagedPipeline, op

from repro.experiments.common import RegisterFileCacheFactory
from repro.isa.instruction import int_reg
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.regfile.banked import OneLevelBankedRegisterFile
from repro.regfile.base import OperandSource
from repro.regfile.cache import RegisterFileCache
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload


def _single_banked_ports(regfile, register):
    return regfile.read_ports


def _bank_ports(regfile, register):
    return regfile._read_ports[regfile.bank_of(register)]


@pytest.mark.parametrize("factory, ports", [
    (lambda: SingleBankedRegisterFile(latency=1, read_ports=2), _single_banked_ports),
    (lambda: OneLevelBankedRegisterFile(num_banks=2, read_ports_per_bank=2), _bank_ports),
], ids=["single-banked-2r", "banked-2x2r"])
def test_one_register_read_twice_counts_two_reads_and_claims_two_ports(factory, ports):
    pipe = StagedPipeline(factory)
    # The architected value of r1 is readable from the file from cycle 0.
    [entry] = pipe.dispatch(0, op(0, dest=int_reg(2), sources=[int_reg(1), int_reg(1)]))
    first, second = entry.accesses
    assert first is second
    assert entry.int_accesses is entry.accesses and not entry.fp_accesses
    pipe.issue(1)
    assert entry.issued
    assert first.source is OperandSource.FILE
    assert first.reads == 2
    regfile = pipe.processor._int_rf
    assert regfile.reads_from_file == 2
    assert ports(regfile, first.register).used == 2
    # Both ports of the file (or bank) are taken for the cycle, so a second
    # reader of that bank must wait for the next one.
    assert not regfile.can_claim_reads([first])


def test_paper_register_file_cache_keeps_no_consumer_index():
    processor = Processor(iter(()), RegisterFileCacheFactory())
    assert processor.window.track_consumers is False
    ready = Processor(iter(()), RegisterFileCacheFactory(caching="ready"))
    assert ready.window.track_consumers is True


def test_prefetch_candidates_are_the_unissued_consumers(monkeypatch):
    """Under ready caching the window keeps the consumer index, so every
    ``on_issue`` call can check that the waiters it gets are exactly the
    producer's unissued consumers, in program order."""
    checked = []
    original = RegisterFileCache.on_issue

    def checking(self, dest, consumers, cycle):
        window = processor.window
        assert list(consumers) == list(window.waiting_consumers_of(dest))
        assert all(not entry.issued for entry in consumers)
        checked.append(cycle)
        return original(self, dest, consumers, cycle)

    monkeypatch.setattr(RegisterFileCache, "on_issue", checking)
    factory = RegisterFileCacheFactory(
        caching="ready", fetch="prefetch-first-pair", upper_read_ports=4,
        upper_write_ports=2, lower_write_ports=4, buses=2)
    for profile in ("gcc", "fpppp"):
        stream = SyntheticWorkload(get_profile(profile)).instructions(1500)
        processor = Processor(stream, factory, ProcessorConfig(max_instructions=1000))
        processor.run()
    assert len(checked) > 500
