"""HTTP client for the sweep service (stdlib sockets only).

:class:`ServiceClient` wraps the JSON API; server-side rejections are
re-raised as :class:`ServiceError` carrying the server's structured
``error.code``/``message`` verbatim, so the client CLI can print exactly
what the service said.

**Connections.**  Each thread using a client keeps one persistent
HTTP/1.1 socket to the service (``Connection: keep-alive``, the
HTTP/1.1 default) with ``TCP_NODELAY`` set, so a poll costs one round
trip instead of a TCP handshake plus a Nagle/delayed-ACK stall.  The
client speaks HTTP/1.1 itself rather than through ``http.client``:
each request leaves in one ``sendall``, and a response is its status
line, a head read by :func:`repro.service.wire.read_head` and a
``Content-Length`` body.  An ``https`` URL is wrapped with
``ssl.create_default_context()``.  A response carrying ``Connection:
close`` retires the socket; any transport or protocol failure
discards it, and the call goes through the retry policy below like
every other transport failure (a stale connection to a restarted
server costs one counted retry, never a hidden re-send).  Proxy
environment variables (``http_proxy``) are not consulted.

**Retries.**  Transport failures (connection refused/reset, timeouts,
dropped responses) and transient server rejections (``503 overloaded``,
``429``) are retried with exponential backoff and *full jitter* — each
delay is drawn uniformly from ``[0, min(cap, base * 2**attempt)]``, so a
thundering herd of clients spreads out instead of re-colliding — under
two limits: at most ``retries`` re-attempts, and never past the
``retry_budget_s`` wall-clock budget per call.  A ``Retry-After`` the
server sent is honored as the delay floor.  Retrying is safe across the
whole API: reads are idempotent, and a doubly-delivered submission only
re-requests simulation points the store already dedupes (the duplicate
job completes from cache).
"""

from __future__ import annotations

import json
import random
import socket
import ssl
import threading
import time
from typing import BinaryIO, Dict, Iterator, Optional, Set, Tuple
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.obs.context import TRACE_HEADER, TraceContext, new_trace
from repro.service import wire
from repro.service.jobs import TERMINAL_STATES

#: Default address of ``python -m repro.service serve``.
DEFAULT_URL = "http://127.0.0.1:8642"

#: HTTP statuses that mark a *transient* server-side rejection.
RETRYABLE_STATUSES = (429, 503)

#: How long :meth:`ServiceClient.watch` waits, once the job is terminal,
#: for the event stream to deliver the terminal phase to ``on_phase``.
PHASE_DRAIN_SECONDS = 2.0

#: :meth:`ServiceClient.watch`'s idle backoff: each poll that sees no
#: progress multiplies the delay by ``WATCH_BACKOFF``, up to
#: ``max(interval, WATCH_MAX_INTERVAL)`` seconds, and each sleep is
#: randomised by ±``WATCH_JITTER`` of the delay.
WATCH_BACKOFF = 1.6
WATCH_MAX_INTERVAL = 8.0
WATCH_JITTER = 0.2


class ServiceError(ReproError):
    """A request the service rejected (or could not be delivered at all).

    ``retry_after`` carries the server's suggested backoff (from the
    ``Retry-After`` header or the structured error body), when present.
    """

    def __init__(self, message: str, code: str = "unreachable",
                 status: Optional[int] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.code = code
        self.status = status
        self.retry_after = retry_after

    def __str__(self) -> str:
        prefix = f"[{self.code}] " if self.code else ""
        return f"{prefix}{super().__str__()}"


def _parse_retry_after(value) -> Optional[float]:
    """Seconds from a ``Retry-After`` header/body value (delta form only)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds >= 0 else None


def _http_error(status: int, headers: Dict[str, str], body: str) -> ServiceError:
    """The :class:`ServiceError` for an error response (status >= 400)."""
    retry_after = _parse_retry_after(headers.get("retry-after"))
    try:
        detail = json.loads(body)["error"]
        if retry_after is None:
            retry_after = _parse_retry_after(detail.get("retry_after"))
        return ServiceError(str(detail.get("message", body)),
                            code=str(detail.get("code", "http_error")),
                            status=status, retry_after=retry_after)
    except (ValueError, KeyError, TypeError, AttributeError):
        return ServiceError(f"HTTP {status}: {body.strip()}",
                            code="http_error", status=status,
                            retry_after=retry_after)


class _Connection:
    """One socket to the service and the buffered reader over it."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile: BinaryIO = sock.makefile("rb")

    def request(self, message: bytes) -> Tuple[int, Dict[str, str]]:
        """Send one request in one write; the response's status and head."""
        self.sock.sendall(message)
        line = wire.read_line(self.rfile)
        version, _, rest = line.decode("iso-8859-1").partition(" ")
        code = rest[:3]
        if not version.startswith("HTTP/1.") or not code.isdecimal():
            raise ValueError(f"malformed status line {line[:80]!r}" if line
                             else "connection closed before a response")
        return int(code), wire.read_head(self.rfile)

    def body(self, headers: Dict[str, str]) -> bytes:
        """The body a head announces: ``Content-Length`` bytes, or
        everything up to the close when it names no length."""
        length = headers.get("content-length")
        if length is None:
            return self.rfile.read()
        body = self.rfile.read(int(length))
        if len(body) != int(length):
            raise ValueError("connection closed mid-body")
        return body

    def close(self) -> None:
        # The reader holds a reference to the socket: close both, or
        # the descriptor stays open and the server never sees the end.
        self.rfile.close()
        self.sock.close()


class ServiceClient:
    """Typed access to every endpoint of the sweep service."""

    def __init__(
        self,
        base_url: str = DEFAULT_URL,
        timeout: float = 60.0,
        retries: int = 3,
        retry_base: float = 0.05,
        retry_cap: float = 2.0,
        retry_budget_s: float = 30.0,
        _sleep=time.sleep,
        _clock=time.monotonic,
        _rng: Optional[random.Random] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        self._tls = parts.scheme == "https"
        self._address = (parts.hostname or "",
                         parts.port or (443 if self._tls else 80))
        self._host = parts.netloc
        #: Path prefix of ``base_url`` (a service mounted below ``/``).
        self._prefix = parts.path
        #: One persistent connection per calling thread; ``_open`` holds
        #: every thread's connection so :meth:`close` can reach them all.
        self._local = threading.local()
        self._open: Set[_Connection] = set()
        self._open_lock = threading.Lock()
        self.timeout = timeout
        self.retries = retries
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.retry_budget_s = retry_budget_s
        #: Total re-attempts made over this client's lifetime.
        self.retried = 0
        #: The trace context of the most recent submit, if any.
        self.last_trace: Optional[TraceContext] = None
        self._sleep = _sleep
        self._clock = _clock
        self._rng = _rng if _rng is not None else random.Random()

    # ------------------------------------------------------------------

    def _connect(self) -> _Connection:
        """A new connection to the service, ``TCP_NODELAY`` set."""
        sock = socket.create_connection(self._address, timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _connection(self) -> _Connection:
        """The calling thread's connection, opened on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None or connection.rfile.closed:  # closed: close()
            connection = self._local.connection = self._connect()
            with self._open_lock:
                self._open.add(connection)
        return connection

    def _discard_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            with self._open_lock:
                self._open.discard(connection)
            connection.close()

    def close(self) -> None:
        """Close every thread's connection; a later call opens a new one."""
        with self._open_lock:
            connections = list(self._open)
            self._open.clear()
        for connection in connections:
            connection.close()

    def _message(self, method: str, path: str, fields: str = "",
                 data: bytes = b"") -> bytes:
        """One request, head and body, ready for a single ``sendall``."""
        return (f"{method} {self._prefix}{path} HTTP/1.1\r\n"
                f"Host: {self._host}\r\n{fields}\r\n").encode("iso-8859-1") + data

    def _unreachable(self, error: Exception) -> ServiceError:
        return ServiceError(
            f"cannot reach sweep service at {self.base_url}: {error}"
        )

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None, raw: bool = False,
                      headers: Optional[dict] = None):
        fields = "Accept: application/json\r\n"
        if headers:
            fields += "".join(f"{name}: {value}\r\n"
                              for name, value in headers.items())
        data = b""
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            fields += ("Content-Type: application/json\r\n"
                       f"Content-Length: {len(data)}\r\n")
        try:
            connection = self._connection()
            status, response_headers = connection.request(
                self._message(method, path, fields, data))
            raw_body = connection.body(response_headers)
        except (OSError, ValueError) as error:
            # Connection refused (restarting replica), a stale keep-alive
            # connection, reset mid-response, dropped responses (nothing
            # or a cut message before the close), a malformed response
            # and timeouts all land here — every one is retryable, on a
            # fresh connection.
            self._discard_connection()
            raise self._unreachable(error) from error
        if ("content-length" not in response_headers
                or response_headers.get("connection", "").lower() == "close"):
            self._discard_connection()
        body = raw_body.decode("utf-8", errors="replace")
        if status >= 400:
            raise _http_error(status, response_headers, body)
        if raw:
            return body
        try:
            return json.loads(body)
        except ValueError as error:
            raise ServiceError(
                f"service returned invalid JSON: {error}", code="bad_response"
            ) from error

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None, raw: bool = False,
                 headers: Optional[dict] = None):
        """One API call with the retry policy of the class docstring."""
        started = self._clock()
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload, raw, headers)
            except ServiceError as error:
                transient = (
                    error.code == "unreachable"
                    or error.status in RETRYABLE_STATUSES
                )
                if not transient or attempt >= self.retries:
                    raise
                # Full jitter: uniform in [0, min(cap, base * 2^attempt)].
                delay = self._rng.uniform(
                    0.0, min(self.retry_cap, self.retry_base * (2 ** attempt))
                )
                if error.retry_after is not None:
                    delay = max(delay, error.retry_after)
                if self._clock() - started + delay > self.retry_budget_s:
                    raise  # out of retry budget; surface the last error
                attempt += 1
                self.retried += 1
                self._sleep(delay)

    # ------------------------------------------------------------------

    def submit(self, spec: dict,
               trace: Optional[TraceContext] = None) -> dict:
        """Submit a job, propagating a trace context end to end.

        A fresh trace is minted when the caller doesn't pass one; the
        context rides the ``X-Repro-Trace`` header and comes back in the
        job record's ``trace`` field, so client and server spans share
        one trace id.  The context used is remembered as
        ``last_trace`` for callers that want to follow the trace later.
        """
        if trace is None:
            trace = new_trace()
        self.last_trace = trace
        return self._request("POST", "/jobs", payload=spec,
                             headers={TRACE_HEADER: trace.to_header()})

    def jobs(self) -> dict:
        return self._request("GET", "/jobs")

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str, fmt: str = "json"):
        raw = fmt == "csv"
        return self._request("GET", f"/jobs/{job_id}/result?format={fmt}",
                             raw=raw)

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------
    # telemetry event stream
    # ------------------------------------------------------------------

    def events(self, since: int = 0,
               stop_on_idle: bool = False) -> Iterator[dict]:
        """Iterate the server's telemetry events (``GET /events`` SSE).

        Yields each event as a dict; ``since`` resumes after an event
        seq.  With ``stop_on_idle`` the iterator returns at the first
        server keepalive — i.e. once the buffered backlog is drained —
        which turns the live stream into a one-shot ring read.  Raises
        :class:`ServiceError` when the server predates /events or
        publishes no stream; callers wanting graceful degradation catch
        it (see :meth:`watch`).
        """
        connection = None
        try:
            connection = self._connect()
            status, headers = connection.request(self._message(
                "GET", f"/events?since={int(since)}",
                "Accept: text/event-stream\r\nConnection: close\r\n",
            ))
            if status >= 400:
                body = connection.body(headers)
        except (OSError, ValueError) as error:
            if connection is not None:
                connection.close()
            raise self._unreachable(error) from error
        if status >= 400:
            connection.close()
            raise _http_error(status, headers, body.decode("utf-8", errors="replace"))
        data_lines: list = []
        try:
            for raw_line in connection.rfile:
                line = raw_line.decode("utf-8", errors="replace").rstrip("\r\n")
                if not line:
                    if data_lines:
                        try:
                            event = json.loads("".join(data_lines))
                        except ValueError:
                            event = None
                        data_lines = []
                        if isinstance(event, dict):
                            yield event
                    continue
                if line.startswith(":"):
                    if stop_on_idle:
                        return  # backlog drained; the stream is idle
                    continue
                if line.startswith("data:"):
                    data_lines.append(line[5:].lstrip())
        except (OSError, ValueError):
            return  # stream ended (server drained or connection lost)
        finally:
            connection.close()

    def job_span_breakdown(self, job_id: str) -> Optional[Dict[str, float]]:
        """One-shot read of the event ring: the job's span durations.

        Sums ``span_end`` durations by span name for ``job_id`` (the
        job root span, queue wait, lease hold, execute).  Returns
        ``None`` when the server has no event stream or nothing was
        recorded — callers print the breakdown only when it exists.
        """
        breakdown: Dict[str, float] = {}
        try:
            for event in self.events(since=0, stop_on_idle=True):
                if event.get("kind") != "span_end":
                    continue
                if event.get("job_id") != job_id:
                    continue
                name = event.get("span")
                duration = event.get("duration_s")
                if isinstance(name, str) and isinstance(duration, (int, float)):
                    breakdown[name] = round(
                        breakdown.get(name, 0.0) + float(duration), 6
                    )
        except ServiceError:
            return None  # older server / no cache dir: degrade silently
        return breakdown or None

    # ------------------------------------------------------------------

    def watch(
        self,
        job_id: str,
        interval: float = 0.5,
        timeout: Optional[float] = None,
        on_update=None,
        unreachable_timeout: Optional[float] = 60.0,
        on_phase=None,
        _sleep=time.sleep,
        _clock=time.time,
    ) -> dict:
        """Poll a job until it reaches a terminal state.

        ``on_update`` (if given) receives every observed job record —
        the CLI uses it to print progress lines.  Raises
        :class:`ServiceError` when ``timeout`` elapses first.

        Polling starts at ``interval`` and, while the job makes no
        observable progress (same state, same completed-point count),
        backs off geometrically by :data:`WATCH_BACKOFF` up to
        ``max(interval, WATCH_MAX_INTERVAL)`` with ±:data:`WATCH_JITTER`
        randomization so many watchers of one queued job don't poll in lockstep.  Any
        progress resets the delay to ``interval``.  ``_sleep``/``_clock``
        are injectable for tests.

        A temporarily *unreachable* service (a replica restarting, a
        connection refused between polls) is treated as lack of progress,
        not an error: the watch keeps polling within the same backoff
        loop and only raises once the service has been continuously
        unreachable for ``unreachable_timeout`` seconds (``None`` waits
        forever, bounded only by ``timeout``).

        ``on_phase`` (if given) receives the job's ``job_phase``
        telemetry events (queued → leased → running → completed/failed)
        streamed live from ``GET /events`` on a background thread; the
        watch returns after the terminal phase was delivered (waiting at
        most :data:`PHASE_DRAIN_SECONDS` for it).  A
        server without an event stream — an older build, or one running
        without a cache dir — simply never calls it: phase streaming
        degrades silently, the poll loop is unaffected.
        """
        phase_stop: Optional[threading.Event] = None
        phase_done = threading.Event()
        if on_phase is not None:
            phase_stop = threading.Event()
            stop = phase_stop

            def _pump_phases() -> None:
                try:
                    for event in self.events():
                        if stop.is_set():
                            return
                        if (event.get("kind") == "job_phase"
                                and event.get("job_id") == job_id):
                            on_phase(event)
                            if event.get("phase") in TERMINAL_STATES:
                                return
                except ServiceError:
                    pass  # no event stream on this server: degrade silently
                finally:
                    phase_done.set()

            threading.Thread(
                target=_pump_phases, name=f"watch-events-{job_id}",
                daemon=True,
            ).start()
        try:
            job = self._watch_poll(
                job_id, interval, timeout, on_update, unreachable_timeout,
                _sleep, _clock,
            )
            if phase_stop is not None:
                # The job turns terminal just before its terminal phase
                # event is published: let the stream deliver it.
                phase_done.wait(PHASE_DRAIN_SECONDS)
            return job
        finally:
            if phase_stop is not None:
                phase_stop.set()

    def _watch_poll(
        self, job_id, interval, timeout, on_update, unreachable_timeout,
        _sleep, _clock,
    ) -> dict:
        backoff, jitter = WATCH_BACKOFF, WATCH_JITTER
        max_interval = max(interval, WATCH_MAX_INTERVAL)
        deadline = _clock() + timeout if timeout is not None else None
        delay = interval
        last_completed = -1
        last_state: Optional[str] = None
        unreachable_since: Optional[float] = None
        while True:
            try:
                job = self.status(job_id)
            except ServiceError as error:
                if error.code != "unreachable":
                    raise
                now = _clock()
                if unreachable_since is None:
                    unreachable_since = now
                if (unreachable_timeout is not None
                        and now - unreachable_since > unreachable_timeout):
                    raise
                if deadline is not None and now > deadline:
                    raise ServiceError(
                        f"timed out after {timeout:.0f}s waiting for job "
                        f"{job_id} (service unreachable)",
                        code="watch_timeout",
                    ) from error
                delay = min(delay * backoff, max_interval)
                _sleep(delay * (1.0 + jitter * (2.0 * random.random() - 1.0)))
                continue
            unreachable_since = None
            state = job.get("state")
            completed = int(job.get("points", {}).get("completed", 0))
            progressed = completed != last_completed or state != last_state
            if on_update is not None and (
                completed != last_completed or state in TERMINAL_STATES
            ):
                on_update(job)
            last_completed = completed
            last_state = state
            if state in TERMINAL_STATES:
                return job
            if deadline is not None and _clock() > deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for job {job_id}",
                    code="watch_timeout",
                )
            delay = interval if progressed else min(delay * backoff, max_interval)
            _sleep(delay * (1.0 + jitter * (2.0 * random.random() - 1.0)))
