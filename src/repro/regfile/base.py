"""Common interface of all register file architectures.

The pipeline model interacts with a register file exclusively through
:class:`RegisterFileModel`:

* at **select/issue** time it asks, for each source operand of a
  candidate instruction, how the operand would be obtained
  (:meth:`RegisterFileModel.plan_operand_read`, which writes the plan
  onto the operand's :class:`~repro.execute.scoreboard.ValueState`),
  checks that the required read ports are available, and finally claims
  them;
* when an operand is *missing* from the upper level of a register file
  cache it asks the model to start a **fill** over one of the
  inter-level buses;
* at **write-back** time it hands the produced value to the model, which
  arbitrates write ports, applies the caching policy and reports when the
  value becomes readable from the file;
* at **issue** time of a producer with waiting consumers the model gets
  a hook used by the prefetch-first-pair scheme.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional, Sequence

from repro.rename.renamer import PhysicalRegister

if TYPE_CHECKING:  # pragma: no cover - annotations only
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
    #: The value is not readable yet: still in flight to the lower bank
    #: of a register file cache, or on its way up in a fill.
    NOT_READY = "not_ready"


class RegisterFileModel(ABC):
    """Abstract register file architecture."""

    #: Cycles between issue and the start of execution (operand read).
    read_stages: int = 1
    #: Cycles from the end of a producer's execution to the earliest
    #: execution of a consumer (1: the bypass catches a result in the
    #: cycle after it is produced).  Only the processor applies it.
    consumer_offset: int = 1
    #: Whether this architecture's policies query the issue window's
    #: per-register consumer index (``waiting_consumers_of``).  Only a
    #: ready-caching register file cache does, so the window usually
    #: skips maintaining it.
    needs_consumer_index: bool = False
    #: Whether the processor calls :meth:`on_issue` when an instruction
    #: with waiting consumers issues; only a prefetch-first-pair register
    #: file cache sets it.
    prefetches_on_issue: bool = False
    #: Human-readable architecture name used in reports.
    name: str = "register-file"
    #: Whether :meth:`begin_cycle` has nothing to do at the next cycle
    #: start.  A model that tracks it sets it false when it takes on work
    #: for the next cycle (read ports claimed, fills in flight) and back
    #: to true in ``begin_cycle``; the pipeline skips the call while it
    #: is true.  The default, false, means "call every cycle".
    idle: bool = False
    #: Operands this file delivered from its (uppermost) bank and from the
    #: bypass network; :meth:`claim_reads` counts them, and the pipeline
    #: sums them over both files into ``SimulationStats.operands_from_file``
    #: and ``operands_from_bypass``.
    reads_from_file: int = 0
    reads_from_bypass: int = 0

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
    def plan_operand_read(self, state: ValueState, issue_cycle: int) -> OperandSource:
        """Plan how the value ``state`` tracks (``state.register``) would be
        obtained by an instruction issued at ``issue_cycle`` (executing
        ``read_stages`` cycles later).

        The processor guarantees the precondition: the producer has
        issued (``state.ex_end_cycle`` is set), and the consumer
        executes at or after ``ex_end_cycle + consumer_offset``.  So the
        model decides only where the operand comes from, never whether
        the consumer may execute yet.

        Sets ``state.source`` (plus ``bank``, or ``retry_cycle`` for a
        NOT_READY plan) in place and returns the source.  The plan is read
        only within the same issue attempt (:meth:`can_claim_reads`,
        :meth:`claim_reads`, fills), so consumers that share a value may
        share its state.
        """

    @abstractmethod
    def can_claim_reads(self, accesses: Sequence[ValueState]) -> bool:
        """Whether the FILE reads planned on ``accesses`` fit in this
        cycle's remaining read-port budget.  A value an instruction reads
        twice appears twice and needs two ports."""

    @abstractmethod
    def claim_reads(self, accesses: Sequence[ValueState]) -> None:
        """Issue the planned reads of ``accesses``: consume read ports for
        the FILE reads, count every read of each value (``reads``), mark
        bypassed values (``consumed_via_bypass``) and add the reads to
        :attr:`reads_from_file` / :attr:`reads_from_bypass`."""

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
        dest: PhysicalRegister,
        consumers: Sequence["IssueQueueEntry"],
        cycle: int,
    ) -> None:
        """Hook invoked when the producer of ``dest`` issues and wakes
        ``consumers`` (its waiter list, oldest first: every unissued
        window entry that sources ``dest``), only on a model whose
        :attr:`prefetches_on_issue` is true (prefetch-first-pair)."""

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
