"""Functional unit pool.

Table 1 of the paper: 6 simple integer units (1 cycle), 3 integer
mult/div units (2-cycle multiply, 14-cycle divide), 4 simple FP units
(2 cycles), 2 FP divide units (14 cycles) and 4 load/store units.
Branches execute on the simple integer units.

All units are fully pipelined except the dividers, which are busy for the
whole operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.isa.opcodes import OpClass


@dataclass(frozen=True)
class FunctionalUnitConfig:
    """Number of functional units of each kind (Table 1 defaults)."""

    simple_int: int = 6
    int_mul_div: int = 3
    simple_fp: int = 4
    fp_div: int = 2
    load_store: int = 4

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ConfigurationError(f"functional unit count {name} must be positive")


#: Which FU group executes each operation class.
_GROUP_FOR_CLASS: dict[OpClass, str] = {
    OpClass.INT_ALU: "simple_int",
    OpClass.BRANCH: "simple_int",
    OpClass.NOP: "simple_int",
    OpClass.INT_MUL: "int_mul_div",
    OpClass.INT_DIV: "int_mul_div",
    OpClass.FP_ALU: "simple_fp",
    OpClass.FP_MUL: "simple_fp",
    OpClass.FP_DIV: "fp_div",
    OpClass.LOAD: "load_store",
    OpClass.STORE: "load_store",
}

#: Operation classes whose units are NOT pipelined (busy for the full latency).
_UNPIPELINED_CLASSES = frozenset({OpClass.INT_DIV, OpClass.FP_DIV})


@dataclass
class _Group:
    count: int
    issued_this_cycle: int = 0
    #: cycles at which currently busy (unpipelined) units become free
    busy_until: list[int] = field(default_factory=list)


class FunctionalUnitPool:
    """Tracks per-cycle functional unit availability."""

    def __init__(self, config: FunctionalUnitConfig | None = None) -> None:
        self.config = config or FunctionalUnitConfig()
        self._groups: dict[str, _Group] = {
            "simple_int": _Group(self.config.simple_int),
            "int_mul_div": _Group(self.config.int_mul_div),
            "simple_fp": _Group(self.config.simple_fp),
            "fp_div": _Group(self.config.fp_div),
            "load_store": _Group(self.config.load_store),
        }
        # Resolve op class -> group once; ``can_issue``/``issue`` run for
        # every issued instruction.
        self._group_for_class: dict[OpClass, _Group] = {
            op_class: self._groups[name]
            for op_class, name in _GROUP_FOR_CLASS.items()
        }
        #: Whether :meth:`begin_cycle` has nothing to reset: no unit
        #: issued since the last reset and no unpipelined operation is
        #: busy.  The pipeline skips the call while it is true.
        self.idle = True

    def begin_cycle(self, cycle: int) -> None:
        """Reset per-cycle issue counters and retire finished busy units.

        Returns at once (cheap flag test) on the many cycles where no
        unit issued since the last reset and no unpipelined operation is
        still busy — the per-group loop showed up in profiles.
        """
        if self.idle:
            return
        idle = True
        for group in self._groups.values():
            group.issued_this_cycle = 0
            if group.busy_until:
                group.busy_until = [c for c in group.busy_until if c > cycle]
                if group.busy_until:
                    idle = False
        self.idle = idle

    def can_issue(self, op_class: OpClass, cycle: int) -> bool:
        """Whether a unit for ``op_class`` can accept a new operation now."""
        group = self._group_for_class[op_class]
        available = group.count - group.issued_this_cycle
        if available <= 0:
            return False
        # ``busy_until`` is only populated by the (rare) unpipelined
        # divides; count in place rather than building a filtered list.
        for busy_cycle in group.busy_until:
            if busy_cycle > cycle:
                available -= 1
        return available > 0

    def issue(self, op_class: OpClass, cycle: int, latency: int) -> None:
        """Record that an operation started executing this cycle.

        Callers must have checked :meth:`can_issue`; issuing beyond
        capacity raises ``ConfigurationError`` to surface scheduler bugs.
        """
        if not self.can_issue(op_class, cycle):
            raise ConfigurationError(
                f"no free {_GROUP_FOR_CLASS[op_class]} unit at cycle {cycle}"
            )
        self.issue_unchecked(op_class, cycle, latency)

    def issue_unchecked(self, op_class: OpClass, cycle: int, latency: int) -> None:
        """:meth:`issue` without re-running the availability check.

        The pipeline's issue stage calls :meth:`can_issue` moments before
        committing to the issue (with no intervening FU state change), so
        re-checking inside :meth:`issue` doubled the per-issue cost.
        """
        group = self._group_for_class[op_class]
        group.issued_this_cycle += 1
        self.idle = False
        if op_class in _UNPIPELINED_CLASSES:
            group.busy_until.append(cycle + latency)
