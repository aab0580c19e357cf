"""Common interface of all register file architectures.

The pipeline model interacts with a register file exclusively through
:class:`RegisterFileModel`:

* at **select/issue** time it asks, for each source operand of a
  candidate instruction, how the operand would be obtained
  (:meth:`RegisterFileModel.plan_operand_read`), checks that the required
  read ports are available, and finally claims them;
* when an operand is *missing* from the upper level of a register file
  cache it asks the model to start a **fill** over one of the
  inter-level buses;
* at **write-back** time it hands the produced value to the model, which
  arbitrates write ports, applies the caching policy and reports when the
  value becomes readable from the file;
* at **issue** time of a producer the model gets a hook used by the
  prefetch-first-pair scheme.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional, Sequence

from repro.isa.instruction import RegisterClass
from repro.rename.renamer import PhysicalRegister

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    # The issue window builds OperandAccess objects, so this module must
    # not import ``repro.execute`` at run time.
    from repro.execute.issue_queue import IssueQueue, IssueQueueEntry
    from repro.execute.scoreboard import ValueState

#: Sentinel meaning "an unlimited number of ports/buses".
UNLIMITED: Optional[int] = None


class OperandSource(enum.Enum):
    """How a source operand would be obtained at issue time."""

    #: The value is caught on the bypass network — no register file port.
    BYPASS = "bypass"
    #: The value is read from the register file (uppermost bank); needs a
    #: read port.
    FILE = "file"
    #: The value exists only in the lower bank of a register file cache
    #: and must be brought up over a bus before the instruction can issue.
    MISS = "miss"
    #: The value is not available yet (producer still executing, or still
    #: in flight to the lower bank).
    NOT_READY = "not_ready"


# Enum members bound once, as in ``repro.pipeline.processor``.
_INT = RegisterClass.INT
_NOT_READY = OperandSource.NOT_READY


class OperandAccess:
    """One source operand of a waiting instruction and its read plan.

    The issue window builds one per source at dispatch; every issue
    attempt re-plans it in place (:meth:`RegisterFileModel.plan_operand_read`)
    instead of allocating a fresh plan per operand per attempt.
    """

    __slots__ = ("register", "state", "is_int", "source", "bank", "retry_cycle")

    def __init__(self, register: PhysicalRegister, state: "ValueState") -> None:
        self.register = register
        #: Scoreboard state of the register, resolved once at dispatch.
        self.state = state
        #: Whether the integer (else the FP) register file holds the value.
        self.is_int: bool = register.reg_class is _INT
        self.source = _NOT_READY
        #: For FILE accesses of multi-banked organisations: which bank is read.
        self.bank = 0
        #: For NOT_READY plans: earliest cycle at which re-planning could
        #: succeed (hint only; ``None`` when unknown).
        self.retry_cycle: Optional[int] = None


class RegisterFileModel(ABC):
    """Abstract register file architecture."""

    #: Cycles between issue and the start of execution (operand read).
    read_stages: int = 1
    #: Number of bypass levels implemented.
    bypass_levels: int = 1
    #: Whether this architecture's policies query the issue window's
    #: per-register consumer index (``waiting_consumers_of``).  Single
    #: level organisations never do, so the window skips maintaining it.
    needs_consumer_index: bool = False
    #: Human-readable architecture name used in reports.
    name: str = "register-file"
    #: Whether :meth:`begin_cycle` has nothing to do at the next cycle
    #: start.  A model that tracks it sets it false when it takes on work
    #: for the next cycle (read ports claimed, fills in flight) and back
    #: to true in ``begin_cycle``; the pipeline skips the call while it
    #: is true.  The default, false, means "call every cycle".
    idle: bool = False

    # ------------------------------------------------------------------
    # per-cycle bookkeeping
    # ------------------------------------------------------------------

    @abstractmethod
    def begin_cycle(self, cycle: int) -> None:
        """Reset per-cycle port counters and complete pending transfers."""

    # ------------------------------------------------------------------
    # reads (issue side)
    # ------------------------------------------------------------------

    @abstractmethod
    def plan_operand_read(
        self, access: OperandAccess, issue_cycle: int
    ) -> OperandSource:
        """Plan how ``access.register`` would be obtained by an instruction
        issued at ``issue_cycle`` (executing ``read_stages`` cycles later).

        Sets ``access.source`` (plus ``bank`` or ``retry_cycle`` where they
        apply) in place and returns the source.
        """

    @abstractmethod
    def can_claim_reads(self, accesses: Sequence[OperandAccess]) -> bool:
        """Whether the FILE accesses in ``accesses`` fit in this cycle's
        remaining read-port budget."""

    @abstractmethod
    def claim_reads(self, accesses: Sequence[OperandAccess]) -> None:
        """Consume read ports for the FILE accesses in ``accesses``."""

    # ------------------------------------------------------------------
    # fills / prefetches (register file cache only; default no-ops)
    # ------------------------------------------------------------------

    def request_fill(
        self, register: PhysicalRegister, state: ValueState, cycle: int
    ) -> Optional[int]:
        """Start bringing ``register`` into the uppermost level.

        Returns the cycle at which the value will be readable from the
        uppermost level, or ``None`` if no transfer could be started (no
        free bus, value not yet in the lower bank).  The default
        implementation (single-level organisations) does nothing.
        """
        return None

    def on_issue(
        self,
        entry: "IssueQueueEntry",
        cycle: int,
        window: "IssueQueue",
        scoreboard,
    ) -> None:
        """Hook invoked when an instruction issues (prefetch-first-pair)."""

    def pin_operand(self, register: PhysicalRegister) -> None:
        """Keep ``register`` resident in the uppermost level until it is read.

        Called by the pipeline for the operands of the oldest waiting
        instruction so that forward progress is guaranteed even with very
        small upper levels.  Single-level organisations need no pinning.
        """

    # ------------------------------------------------------------------
    # writes (write-back side)
    # ------------------------------------------------------------------

    @abstractmethod
    def writeback(
        self,
        register: PhysicalRegister,
        state: ValueState,
        cycle: int,
        window: "IssueQueue",
    ) -> int:
        """Write the produced value into the register file.

        Returns the cycle from which the value is readable from the file
        (the lowest bank for a register file cache).
        """

    # ------------------------------------------------------------------
    # lifetime management
    # ------------------------------------------------------------------

    def release(self, register: PhysicalRegister) -> None:
        """The physical register was returned to the free list."""

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        return self.name

    def statistics(self) -> dict:
        """Architecture-specific counters for reports (may be empty)."""
        return {}
