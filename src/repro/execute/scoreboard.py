"""Value scoreboard entries: the timing state of a physical register's value.

A :class:`ValueState` records, for one physical register in use, when
its value is produced (end of the producer's execution), when it becomes
readable from the register file (after write-port arbitration), and
whether any consumer obtained it through the bypass network.  The issue
window keeps one per live register (``IssueQueue.values``); the pipeline
stages, the register-file models and their caching and prefetch
policies read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.rename.renamer import PhysicalRegister


@dataclass(slots=True)
class ValueState:
    """Timing state of the value held by one physical register."""

    register: PhysicalRegister
    producer_seq: Optional[int] = None
    #: Cycle at the end of which the producing operation finishes executing
    #: (None while unknown, e.g. the producer has not started executing).
    ex_end_cycle: Optional[int] = None
    #: Cycle from which the value can be read from the register file
    #: (lowest level for a register file cache).
    rf_ready_cycle: Optional[int] = None
    #: Whether at least one consumer obtained this value from the bypass
    #: network (input to the non-bypass caching policy).
    consumed_via_bypass: bool = False
    #: Number of consumers that have read the value so far, through the
    #: bypass network or from the register file (the commit stage counts
    #: it into ``SimulationStats.value_read_distribution``).
    reads: int = 0
    #: Whether the value has been written back to the (lowest) bank.
    written_back: bool = False

    @property
    def produced(self) -> bool:
        """Whether the producing instruction's finish time is known."""
        return self.ex_end_cycle is not None
