"""Execution core: functional units, issue queue, ROB, bypass, scoreboard."""

from repro.execute.functional_units import FunctionalUnitPool, FunctionalUnitConfig
from repro.execute.rob import ReorderBuffer
from repro.execute.scoreboard import ValueScoreboard, ValueState
from repro.execute.bypass import BypassNetwork
from repro.execute.issue_queue import IssueQueue, IssueQueueEntry

__all__ = [
    "FunctionalUnitPool",
    "FunctionalUnitConfig",
    "ReorderBuffer",
    "ValueScoreboard",
    "ValueState",
    "BypassNetwork",
    "IssueQueue",
    "IssueQueueEntry",
]
