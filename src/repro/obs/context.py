"""Trace contexts and their propagation.

A :class:`TraceContext` is the pair ``(trace_id, span_id)``: the trace
identifies one end-to-end operation (a submitted job, from the client
call to the last stored point), the span identifies one timed step
inside it.  Contexts cross process boundaries as the ``X-Repro-Trace``
header (``<trace_id>-<span_id>``, both lowercase hex) and as plain
dictionaries inside job records and worker task payloads.

The *current* context is tracked in a :class:`contextvars.ContextVar`
so deep layers (the storage observer, the JSON log formatter) can stamp
their output with the active trace without any parameter threading;
``bind()`` scopes an override to a ``with`` block.
"""

from __future__ import annotations

import contextlib
import contextvars
import re
import uuid
from dataclasses import dataclass
from typing import Iterator, Optional

#: HTTP header carrying a trace context end to end.
TRACE_HEADER = "X-Repro-Trace"

_HEADER_RE = re.compile(r"^([0-9a-f]{16,32})-([0-9a-f]{8,16})$")


def _hex(bits: int) -> str:
    return uuid.uuid4().hex[: bits // 4]


@dataclass(frozen=True)
class TraceContext:
    """One ``(trace_id, span_id)`` pair; immutable, hashable."""

    trace_id: str
    span_id: str

    def child(self) -> "TraceContext":
        """A fresh span in the same trace."""
        return TraceContext(self.trace_id, _hex(64))

    def to_header(self) -> str:
        return f"{self.trace_id}-{self.span_id}"

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload) -> Optional["TraceContext"]:
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if isinstance(trace_id, str) and isinstance(span_id, str):
            return cls(trace_id, span_id)
        return None

    @classmethod
    def parse(cls, header) -> Optional["TraceContext"]:
        """A context from an ``X-Repro-Trace`` value; ``None`` when the
        header is absent or malformed (propagation degrades, never 4xx)."""
        if not isinstance(header, str):
            return None
        match = _HEADER_RE.match(header.strip())
        if match is None:
            return None
        return cls(match.group(1), match.group(2))


def new_trace() -> TraceContext:
    """A fresh root context (new trace, new span)."""
    return TraceContext(_hex(128), _hex(64))


#: The context active in this thread/task, if any.
_current: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def current() -> Optional[TraceContext]:
    """The trace context bound to the calling thread, if any."""
    return _current.get()


@contextlib.contextmanager
def bind(context: Optional[TraceContext]) -> Iterator[None]:
    """Scope ``context`` as the current one for the ``with`` block."""
    token = _current.set(context)
    try:
        yield
    finally:
        _current.reset(token)
