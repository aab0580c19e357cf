"""Static and dynamic instruction representations.

The timing simulator is *stream driven*: it consumes a sequence of
:class:`DynamicInstruction` objects, each of which already knows its
branch outcome and effective memory address (when applicable).  The
simulator models only timing — register renaming, issue, port
arbitration, caching — exactly like trace-driven research simulators of
the era the paper comes from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.isa.opcodes import OpClass, Opcode, default_latency

# Enum members bound once, as in ``repro.pipeline.processor``.
_BRANCH = OpClass.BRANCH
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


class RegisterClass(enum.Enum):
    """Whether a logical register lives in the integer or FP register file."""

    # C-level identity hash: register classes key map tables and register
    # file dictionaries on the per-instruction path, and the default
    # ``Enum.__hash__`` is a comparatively slow Python-level function.
    __hash__ = object.__hash__

    INT = "int"
    FP = "fp"


#: Number of architected (logical) registers per class, Alpha-like.
NUM_LOGICAL_PER_CLASS = 32


@dataclass(frozen=True, order=True)
class LogicalRegister:
    """An architected register, e.g. integer r5 or floating point f12."""

    reg_class: RegisterClass
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_LOGICAL_PER_CLASS:
            raise ValueError(
                f"logical register index {self.index} out of range "
                f"[0, {NUM_LOGICAL_PER_CLASS})"
            )
        # Registers key the hottest dictionaries of the simulator; the
        # generated dataclass hash allocates a (reg_class, index) tuple on
        # every call, so cache a cheap, equality-consistent integer hash.
        object.__setattr__(
            self, "_hash", (self.index << 1) | (self.reg_class is RegisterClass.FP)
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        prefix = "r" if self.reg_class is RegisterClass.INT else "f"
        return f"{prefix}{self.index}"


INT_LOGICAL_REGISTERS: tuple[LogicalRegister, ...] = tuple(
    LogicalRegister(RegisterClass.INT, i) for i in range(NUM_LOGICAL_PER_CLASS)
)
FP_LOGICAL_REGISTERS: tuple[LogicalRegister, ...] = tuple(
    LogicalRegister(RegisterClass.FP, i) for i in range(NUM_LOGICAL_PER_CLASS)
)


def int_reg(index: int) -> LogicalRegister:
    """Shorthand for the integer logical register ``r<index>``."""
    return INT_LOGICAL_REGISTERS[index]


def fp_reg(index: int) -> LogicalRegister:
    """Shorthand for the floating-point logical register ``f<index>``."""
    return FP_LOGICAL_REGISTERS[index]


@dataclass(frozen=True)
class StaticInstruction:
    """One instruction of a static program (before execution).

    Static instructions carry label/immediate information so the
    functional executor in :mod:`repro.isa.program` can run them and emit
    the dynamic stream consumed by the timing simulator.
    """

    opcode: Opcode
    dest: Optional[LogicalRegister] = None
    sources: tuple[LogicalRegister, ...] = ()
    immediate: int = 0
    target_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.opcode.has_dest and self.dest is None:
            raise ValueError(f"opcode {self.opcode.mnemonic} requires a destination")
        if not self.opcode.has_dest and self.dest is not None:
            raise ValueError(f"opcode {self.opcode.mnemonic} takes no destination")
        if len(self.sources) != self.opcode.num_sources:
            raise ValueError(
                f"opcode {self.opcode.mnemonic} takes {self.opcode.num_sources} "
                f"source registers, got {len(self.sources)}"
            )

    @property
    def op_class(self) -> OpClass:
        return self.opcode.op_class

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.opcode.mnemonic]
        operands: list[str] = []
        if self.dest is not None:
            operands.append(str(self.dest))
        operands.extend(str(s) for s in self.sources)
        if self.target_label is not None:
            operands.append(self.target_label)
        elif self.opcode.has_immediate:
            operands.append(str(self.immediate))
        return parts[0] + " " + ", ".join(operands)


@dataclass(slots=True)
class DynamicInstruction:
    """One instruction of the dynamic stream fed to the timing simulator.

    Attributes
    ----------
    seq:
        Position in the dynamic stream (0-based, monotonically increasing).
    op_class:
        Operation class; selects functional unit and latency.
    dest:
        Destination logical register, or ``None`` for stores/branches/nops.
    sources:
        Source logical registers (possibly empty).
    latency:
        Functional-unit latency in cycles (defaults to the class latency).
    pc:
        Instruction address (used by the I-cache and branch predictor).
    is_branch / branch_taken / branch_target:
        Control-flow information; ``branch_taken`` is the *actual* outcome
        that the branch predictor is trying to predict.
    mem_address:
        Effective address for loads/stores (``None`` otherwise).
    """

    seq: int
    op_class: OpClass
    dest: Optional[LogicalRegister] = None
    sources: tuple[LogicalRegister, ...] = ()
    latency: Optional[int] = None
    pc: int = 0
    is_branch: bool = False
    branch_taken: bool = False
    branch_target: int = 0
    mem_address: Optional[int] = None
    mnemonic: str = ""

    def __post_init__(self) -> None:
        # Identity checks instead of the OpClass convenience properties:
        # this runs once per generated instruction.
        op_class = self.op_class
        if self.latency is None:
            self.latency = default_latency(op_class)
        if op_class is _BRANCH:
            self.is_branch = True
        if ((op_class is _LOAD or op_class is _STORE)
                and self.mem_address is None):
            self.mem_address = 0

    @property
    def is_load(self) -> bool:
        return self.op_class is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class is OpClass.STORE

    @property
    def writes_register(self) -> bool:
        return self.dest is not None

    @property
    def next_pc(self) -> int:
        """Address of the next instruction actually executed."""
        if self.is_branch and self.branch_taken:
            return self.branch_target
        return self.pc + 4

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        name = self.mnemonic or self.op_class.value
        dest = f" {self.dest}" if self.dest is not None else ""
        srcs = ",".join(str(s) for s in self.sources)
        return f"[{self.seq}] {name}{dest} <- {srcs}"
