"""Reorder buffer.

Instructions enter the ROB in program order at dispatch and leave in
program order at commit, up to the commit width per cycle, once they have
completed execution.  The ROB holds the same in-flight record the issue
window holds (:class:`~repro.execute.issue_queue.IssueQueueEntry`), so
write-back marks completion on the object it already carries.  The
pipeline's dispatch stage appends to ``_entries`` (with the overflow and
program-order checks) and its commit stage pops the head, in place.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError
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
