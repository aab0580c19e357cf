"""Execution core: functional units, the issue window and the in-flight record.

The reorder buffer and the load/store queue are plain state of
:class:`~repro.pipeline.processor.Processor` (``rob``, ``lsq_occupancy``,
``stores_at``), which its stages work on in place; the timing state of
every live value (:class:`ValueState`) sits in the window's ``values``.
"""

from repro.execute.functional_units import FunctionalUnitPool, FunctionalUnitConfig
from repro.execute.scoreboard import ValueState
from repro.execute.issue_queue import IssueQueue, IssueQueueEntry

__all__ = [
    "FunctionalUnitPool",
    "FunctionalUnitConfig",
    "ValueState",
    "IssueQueue",
    "IssueQueueEntry",
]
