"""Value scoreboard: timing state of every physical register's value.

The scoreboard records, for each physical register currently in use, when
its value is produced (end of the producer's execution), when it becomes
readable from the register file (after write-port arbitration), and
whether any consumer obtained it through the bypass network.  Both the
issue logic and the register-file caching policies consult it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.rename.renamer import PhysicalRegister


#: Sentinel for "not yet known".
UNKNOWN = None


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


class ValueScoreboard:
    """Tracks :class:`ValueState` for all live physical registers."""

    def __init__(self) -> None:
        #: State per live physical register, keyed by the register's
        #: cached integer ``uid`` — integers hash at C speed, and this is
        #: one of the hottest dictionaries in the simulator.  The
        #: dictionary object is never rebound: the pipeline hot loop
        #: keeps a direct reference to it to skip a method call per
        #: operand lookup.
        self._states: Dict[int, ValueState] = {}

    # ------------------------------------------------------------------

    def seed_architected(self, register: PhysicalRegister) -> None:
        """Mark ``register`` as holding an architected value available from
        cycle 0 (used for the initial logical→physical mappings)."""
        state = ValueState(
            register=register,
            producer_seq=-1,
            ex_end_cycle=-1,
            rf_ready_cycle=0,
            written_back=True,
        )
        self._states[register.uid] = state

    def allocate(self, register: PhysicalRegister, producer_seq: int) -> ValueState:
        """Create a fresh state when ``register`` is allocated at rename."""
        state = ValueState(register, producer_seq)
        self._states[register.uid] = state
        return state

    def release(self, register: PhysicalRegister) -> None:
        """Drop the state when the register returns to the free list."""
        self._states.pop(register.uid, None)

    def get(self, register: PhysicalRegister) -> ValueState:
        """Return the state of ``register``.

        Raises
        ------
        SimulationError
            If the register has no recorded state (reading a register that
            was never allocated indicates a renaming bug).
        """
        state = self._states.get(register.uid)
        if state is None:
            raise SimulationError(f"no scoreboard state for {register}")
        return state

    def contains(self, register: PhysicalRegister) -> bool:
        return register.uid in self._states

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._states)
