"""The load/store queue's address index against a reference linear scan.

``Processor.forwarding_store`` reads a per-address index of the queued
stores (``Processor.stores_at``), which the dispatch stage appends to and
the commit stage pops from, instead of scanning the queue.  A seeded random stream of
loads, stores and ALU operations over a few addresses runs through the
pipeline, and every forwarding query the issue stage makes is checked
against a scan of the reorder buffer, which holds exactly the loads and
stores the queue does (both take them at dispatch and drop them at
commit).
"""

from __future__ import annotations

import random

import pytest

from repro.isa.instruction import DynamicInstruction, int_reg
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.regfile.monolithic import SingleBankedRegisterFile

ADDRESSES = [0x100 + 8 * i for i in range(6)]


def random_stream(rng: random.Random, count: int) -> list:
    stream = []
    for seq in range(count):
        kind = rng.random()
        if kind < 0.35:
            stream.append(
                DynamicInstruction(
                    seq=seq,
                    op_class=OpClass.STORE,
                    sources=(int_reg(rng.randint(1, 8)), int_reg(9)),
                    mem_address=rng.choice(ADDRESSES),
                )
            )
        elif kind < 0.7:
            stream.append(
                DynamicInstruction(
                    seq=seq,
                    op_class=OpClass.LOAD,
                    dest=int_reg(rng.randint(1, 8)),
                    sources=(int_reg(9),),
                    mem_address=rng.choice(ADDRESSES),
                )
            )
        else:
            stream.append(
                DynamicInstruction(
                    seq=seq,
                    op_class=rng.choice([OpClass.INT_ALU, OpClass.INT_MUL]),
                    dest=int_reg(rng.randint(1, 8)),
                    sources=(int_reg(rng.randint(1, 8)),),
                )
            )
    return stream


class CheckedQueue:
    """Wraps a processor's ``forwarding_store`` with a reference scan."""

    def __init__(self, processor: Processor) -> None:
        self.processor = processor
        self.forward = processor.forwarding_store
        self.queries = 0
        self.forwarded_loads = 0

    def queued(self) -> list:
        """The loads and stores in flight, oldest first."""
        memory = (OpClass.LOAD, OpClass.STORE)
        return [
            entry.instruction
            for entry in self.processor.rob
            if entry.instruction.op_class in memory
        ]

    def __call__(self, seq: int, address: int):
        queued = self.queued()
        best = None
        index = {}
        for instruction in queued:
            if instruction.op_class is OpClass.STORE:
                index.setdefault(instruction.mem_address, []).append(instruction.seq)
                if instruction.seq < seq and instruction.mem_address == address:
                    best = instruction.seq
        assert self.processor.lsq_occupancy == len(queued)
        assert self.processor.stores_at == index
        if best is not None:
            self.forwarded_loads += 1
        self.queries += 1
        assert self.forward(seq, address) == best
        return best


@pytest.mark.parametrize("seed", range(20))
def test_index_matches_linear_scan(seed):
    rng = random.Random(seed)
    processor = Processor(
        random_stream(rng, 400),
        SingleBankedRegisterFile,
        ProcessorConfig(lsq_size=12, rob_size=24),
    )
    checked = CheckedQueue(processor)
    processor.forwarding_store = checked
    stats = processor.run()
    assert stats.committed_instructions == 400
    assert checked.queries > 0
    assert stats.loads_forwarded == checked.forwarded_loads
    assert checked.forwarded_loads > 0
    assert processor.lsq_occupancy == 0
    assert processor.stores_at == {}
