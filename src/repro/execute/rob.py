"""Reorder buffer.

Instructions enter the ROB in program order at dispatch and leave in
program order at commit, up to the commit width per cycle, once they have
completed execution.  The ROB holds the same in-flight record the issue
window holds (:class:`~repro.execute.issue_queue.IssueQueueEntry`), so
write-back marks completion on the object it already carries.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.errors import ConfigurationError, SimulationError
from repro.execute.issue_queue import IssueQueueEntry


class ReorderBuffer:
    """A bounded, program-ordered reorder buffer."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ConfigurationError("ROB capacity must be positive")
        self.capacity = capacity
        #: Oldest entry first.  The deque object is never rebound (the
        #: pipeline's run loop holds a direct reference).
        self._entries: "deque[IssueQueueEntry]" = deque()

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def dispatch(self, entry: IssueQueueEntry) -> IssueQueueEntry:
        """Insert an in-flight record at the tail (program order)."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise SimulationError("ROB overflow")
        if entries and entries[-1].seq >= entry.seq:
            raise SimulationError("ROB entries must be dispatched in program order")
        entries.append(entry)
        return entry

    def retire(self, width: int, cycle: int) -> List[IssueQueueEntry]:
        """Remove and return, oldest first, up to ``width`` head entries that
        completed before ``cycle``.

        Commit is in program order: an entry leaves only from the head, so a
        completed entry waits behind an older incomplete one.  A completed
        instruction commits at the earliest one cycle after it completes
        (write-back and commit are separate stages).  The pipeline calls
        this on every commit cycle, so it is a plain loop returning a list
        rather than a generator resumed once per entry.
        """
        entries = self._entries
        retired = []
        while width > 0 and entries:
            head = entries[0]
            if not head.completed or head.complete_cycle >= cycle:
                break
            width -= 1
            retired.append(entries.popleft())
        return retired

    def occupancy(self) -> int:
        return len(self._entries)
