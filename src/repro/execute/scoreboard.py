"""Value scoreboard entries: the timing state of a physical register's value.

A :class:`ValueState` records, for one physical register in use, when
its value is produced (end of the producer's execution), when it becomes
readable from the register file (after write-port arbitration), and
whether any consumer obtained it through the bypass network.  The issue
window keeps one per live register (``IssueQueue.values``); the pipeline
stages, the register-file models and their caching and prefetch
policies read it.

The same record is also a consumer's operand access: dispatch puts the
state of each source into the entry's ``accesses``, and an issue attempt
plans the read on it (``source``, ``bank``, ``retry_cycle``).  Every
reader of a plan runs in the attempt that made it, so consumers sharing
a value may share the record.
"""

from __future__ import annotations

from typing import Optional

from repro.rename.renamer import PhysicalRegister


class ValueState:
    """Timing state of the value held by one physical register."""

    __slots__ = (
        "register", "producer_seq", "ex_end_cycle", "rf_ready_cycle",
        "consumed_via_bypass", "reads", "written_back",
        "source", "bank", "retry_cycle",
    )

    def __init__(
        self,
        register: PhysicalRegister,
        producer_seq: Optional[int] = None,
        ex_end_cycle: Optional[int] = None,
        rf_ready_cycle: Optional[int] = None,
        written_back: bool = False,
    ) -> None:
        self.register = register
        self.producer_seq = producer_seq
        #: Cycle at the end of which the producing operation finishes executing
        #: (None while unknown, e.g. the producer has not started executing).
        self.ex_end_cycle = ex_end_cycle
        #: Cycle from which the value can be read from the register file
        #: (lowest level for a register file cache).
        self.rf_ready_cycle = rf_ready_cycle
        #: Whether at least one consumer obtained this value from the bypass
        #: network (input to the non-bypass caching policy).
        self.consumed_via_bypass = False
        #: Number of consumers that have read the value so far, through the
        #: bypass network or from the register file (the commit stage counts
        #: it into ``SimulationStats.value_read_distribution``).
        self.reads = 0
        #: Whether the value has been written back to the (lowest) bank.
        self.written_back = written_back
        # The read plan of the latest issue attempt that sourced this value,
        # written only by ``RegisterFileModel.plan_operand_read``: the
        # ``OperandSource``, for a FILE read of a multi-banked organisation
        # the bank read, and for a NOT_READY plan the earliest cycle at
        # which re-planning could succeed (hint only; ``None`` when
        # unknown).  Unset until the first plan.

    @property
    def produced(self) -> bool:
        """Whether the producing instruction's finish time is known."""
        return self.ex_end_cycle is not None
