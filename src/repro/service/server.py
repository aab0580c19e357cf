"""Stdlib HTTP front-end of the sweep service.

Routes (all JSON unless ``format=csv``)::

    POST /jobs                  submit a figure plan or explicit points
    GET  /jobs                  summary list of known jobs
    GET  /jobs/<id>             one job's status record
    GET  /jobs/<id>/result      completed job's result (?format=json|csv)
    GET  /healthz               liveness + version
    GET  /metrics               queue depth, jobs by state, points/min,
                                cache hit rates, worker-pool resets
                                (?format=prometheus for text exposition)
    GET  /events                live telemetry event stream (SSE;
                                ?since=<seq> resumes after a cursor)

Submissions may carry an ``X-Repro-Trace: <trace_id>-<span_id>`` header;
the job's root span becomes a child of that context, so client-minted
trace ids follow a job through queueing, execution and storage.  A
missing or malformed header degrades to a server-minted trace — never a
4xx.

Every error — including unknown routes and internal failures — is a
structured JSON body ``{"error": {"code": ..., "message": ...}}``; a
client never sees an HTML traceback.

JSON bodies are compact (keys sorted, no indentation): with ``indent``
set, :mod:`json` falls back to its pure-Python encoder.  A figure
job's result is rendered once per distinct plan and kept by the app
(:meth:`ServiceApp.job_result`), which still checks on every request
that the plan's points are stored.

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY`` set.  The
handler reads each request's head with :func:`repro.service.wire.read_head`
(not ``http.server``'s :mod:`email` parser) and accepts only
``METHOD SP target SP HTTP/1.x``; a request it cannot parse (a garbage
request line, ``HTTP/2.0``, a header line over 64 KiB, an unknown
method) gets a JSON error and a closed connection like any other
refusal.  A response's status line, headers and body leave in one
write, so the client wakes once per response.  An error answered
before the request body was read closes the connection, so unread body
bytes are never parsed as the next request; ``server_close`` ends idle
keep-alive connections.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Tuple
from urllib.parse import parse_qs, urlparse

from repro.chaos import seams as _seams
from repro.obs.context import TRACE_HEADER, TraceContext
from repro.obs.events import EVENT_ENCODER
from repro.service import wire
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient
from repro.service.spec import ApiError

#: How long one /events poll blocks before emitting a keepalive comment;
#: short enough that a draining server releases its stream threads fast.
EVENTS_POLL_SECONDS = 1.0

#: Upper bound on one SSE connection's lifetime (seconds).  Clients
#: (ServiceClient.events) reconnect with ``since=<last seq>``, so a
#: bounded stream costs a resumed cursor, not lost events.
EVENTS_MAX_SECONDS = 3600.0

#: The trace header's key in a head read by :func:`wire.read_head`.
TRACE_FIELD = TRACE_HEADER.lower()

#: Submissions larger than this are rejected outright (a malformed
#: Content-Length must not let a request buffer without bound).
MAX_BODY_BYTES = 8 * 1024 * 1024


#: Encodes response bodies, as ``json.dumps(payload, sort_keys=True,
#: default=str)`` does without building an encoder per call.
_BODY_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def json_body(payload: dict) -> str:
    """A JSON response body: keys sorted, no indentation, so the C
    encoder of :mod:`json` writes it; newline-terminated."""
    return _BODY_ENCODER.encode(payload) + "\n"


def http_date(seconds: Optional[float] = None) -> str:
    """A ``Date`` header value, as ``email.utils.formatdate(usegmt=True)``
    writes it (English names whatever the locale)."""
    year, month, day, hour, minute, second, weekday = time.gmtime(seconds)[:7]
    return (f"{BaseHTTPRequestHandler.weekdayname[weekday]}, {day:02d} "
            f"{BaseHTTPRequestHandler.monthname[month]} {year} "
            f"{hour:02d}:{minute:02d}:{second:02d} GMT")


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto :class:`ServiceApp` methods."""

    server_version = "repro-sweep-service"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    path = ""  # until a request line parses

    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    # ------------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.app.progress is not None:
            self.app.progress("http: " + format % args)

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and read the head that follows it.

        Only ``METHOD SP target SP HTTP/1.x`` is served.  Keep-alive
        follows ``http.server``: an HTTP/1.1 connection stays open unless
        the request says ``Connection: close``, an HTTP/1.0 one closes
        unless it says ``Connection: keep-alive``.  ``Expect:
        100-continue`` on HTTP/1.1 is answered ``100 Continue`` before
        the body is read.  On failure the JSON error is already sent.
        """
        self.command = None
        self.path = ""
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split(" ")
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            self.send_error(400, f"malformed request line {self.requestline[:80]!r}")
            return False
        command, path, version = words
        major, dot, minor = version[5:].partition(".")
        if not (major.isdecimal() and dot and minor.isdecimal()):
            self.send_error(400, f"malformed HTTP version {version[:80]!r}")
            return False
        if int(major) != 1:
            self.send_error(505, f"HTTP/1.x only, not {version}")
            return False
        self.command, self.request_version = command, version
        # As http.server does: a target of '//host/...' must not read as
        # a network location.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = wire.read_head(self.rfile)
        except wire.HeadError as error:
            self.send_error(error.status, str(error))
            return False
        http11 = int(minor) > 0
        connection = self.headers.get("connection", "").lower()
        self.close_connection = (connection == "close" if http11
                                 else connection != "keep-alive")
        if http11 and self.headers.get("expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Refuse a request that cannot be served, as JSON, and close.

        Also answers ``http.server``'s own refusals (a request line over
        64 KiB, a method with no ``do_`` handler), which would otherwise
        be HTML pages.
        """
        status = HTTPStatus(code)
        self._send_error(ApiError(status.value, status.name.lower(),
                                  message or status.phrase), close=True)

    def _head(self, status: int, *fields: str) -> bytes:
        """The status line, ``Server``, ``Date`` and ``fields``, through
        the blank line that ends the head; logs the response."""
        self.log_request(status)
        phrase = self.responses.get(status, ("",))[0]
        return "\r\n".join((
            f"HTTP/1.1 {status} {phrase}",
            f"Server: {self.version_string()}",
            f"Date: {http_date()}",
            *fields, "", "",
        )).encode("iso-8859-1")

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_body(status, json_body(payload), "application/json")

    def _send_body(self, status: int, body: str, content_type: str,
                   retry_after: Optional[float] = None,
                   close: bool = False) -> None:
        if _seams.active is not None:
            # Chaos seam: dropped / delayed / connection-reset responses.
            # The request was fully processed server-side — exactly the
            # ambiguity (did my idempotent submit land?) the client's
            # retry layer must absorb.
            directive = _seams.active.fire(
                "http.response", method=self.command, path=self.path,
                status=status,
            )
            if directive == "drop":
                # Close without writing a response: the client sees an
                # empty reply / connection closed mid-request.
                self.close_connection = True
                try:
                    self.connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return
            if directive == "reset":
                # RST instead of FIN: SO_LINGER with zero timeout makes
                # close() abort the connection.
                self.close_connection = True
                try:
                    self.connection.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    self.connection.close()
                except OSError:
                    pass
                return
        encoded = body.encode("utf-8")
        fields = [f"Content-Type: {content_type}; charset=utf-8",
                  f"Content-Length: {len(encoded)}"]
        if retry_after is not None:
            fields.append(f"Retry-After: {max(1, int(retry_after))}")
        if close or self.close_connection:
            # Also when the request asked to close (RFC 9112, 9.6).
            fields.append("Connection: close")
            self.close_connection = True
        # One write: the peer wakes once, with the whole response.
        self.wfile.write(self._head(status, *fields) + encoded)

    def _send_error(self, error: ApiError, close: bool = False) -> None:
        self._send_body(error.status, json_body(error.to_dict()),
                        "application/json",
                        retry_after=getattr(error, "retry_after", None),
                        close=close)

    # ------------------------------------------------------------------

    def _job_route(self, path: str) -> Tuple[Optional[str], Optional[str]]:
        """``/jobs/<id>[/sub]`` -> (job_id, subresource)."""
        parts = [part for part in path.split("/") if part]
        if not parts or parts[0] != "jobs":
            return None, None
        if len(parts) == 1:
            return "", None
        if len(parts) == 2:
            return parts[1], None
        if len(parts) == 3:
            return parts[1], parts[2]
        return None, None

    def _read_body(self) -> bytes:
        length = self.headers.get("content-length")
        try:
            size = int(length) if length is not None else 0
        except ValueError as exc:
            raise ApiError(400, "bad_request", "invalid Content-Length") from exc
        if size < 0 or size > MAX_BODY_BYTES:
            raise ApiError(400, "bad_request",
                           f"request body must be 0..{MAX_BODY_BYTES} bytes")
        return self.rfile.read(size) if size else b""

    # ------------------------------------------------------------------

    def _stream_events(self, query: dict) -> None:
        """``GET /events``: the replica's live telemetry feed as SSE.

        Frames are ``id: <seq>`` / ``data: <event json>``; a client that
        reconnects with ``?since=<last id>`` resumes from the oldest
        still-buffered event after its cursor (the on-disk event log is
        the lossless record — the stream is the live tail).  Idle
        connections get keepalive comments so proxies don't reap them.
        """
        bus = self.app.telemetry.bus
        if bus is None:
            raise ApiError(
                404, "events_unavailable",
                "this server publishes no event stream (no cache dir)",
            )
        try:
            cursor = int(query.get("since", ["0"])[-1])
        except ValueError as exc:
            raise ApiError(400, "bad_request",
                           "since must be an integer event seq") from exc
        self.close_connection = True
        self.wfile.write(self._head(
            200, "Content-Type: text/event-stream; charset=utf-8",
            "Cache-Control: no-store", "Connection: close",
        ))
        deadline = time.monotonic() + EVENTS_MAX_SECONDS
        try:
            while not self.app.stopping and time.monotonic() < deadline:
                events = bus.wait(cursor, timeout=EVENTS_POLL_SECONDS)
                if not events:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                for event in events:
                    seq = int(event.get("seq", 0))
                    cursor = max(cursor, seq)
                    data = EVENT_ENCODER.encode(event)
                    self.wfile.write(
                        f"id: {seq}\ndata: {data}\n\n".encode("utf-8")
                    )
                self.wfile.flush()
        except (OSError, ValueError):
            pass  # subscriber went away; nothing to clean up

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            parsed = urlparse(self.path)
            path = parsed.path
            if path in ("/healthz", "/healthz/"):
                self._send_json(200, self.app.health())
                return
            if path in ("/metrics", "/metrics/"):
                params = parse_qs(parsed.query)
                fmt = params.get("format", ["json"])[-1]
                if fmt == "prometheus":
                    self._send_body(200, self.app.prometheus_text(),
                                    "text/plain; version=0.0.4")
                elif fmt == "json":
                    self._send_json(200, self.app.metrics())
                else:
                    raise ApiError(
                        400, "bad_format",
                        f"unsupported metrics format {fmt!r} "
                        f"(json or prometheus)",
                    )
                return
            if path in ("/events", "/events/"):
                self._stream_events(parse_qs(parsed.query))
                return
            job_id, sub = self._job_route(path)
            if job_id == "" and sub is None:
                jobs = [job.to_dict() for job in self.app.queue.jobs()]
                jobs.sort(key=lambda entry: entry["submitted_at"])
                self._send_json(200, {"jobs": jobs})
                return
            if job_id and sub is None:
                self._send_json(200, self.app.get_job(job_id).to_dict())
                return
            if job_id and sub == "result":
                params = parse_qs(parsed.query)
                fmt = params.get("format", ["json"])[-1]
                result = self.app.job_result(job_id, fmt=fmt)
                if fmt == "csv":
                    self._send_body(200, result, "text/csv")
                else:
                    self._send_json(200, result)
                return
            raise ApiError(404, "not_found", f"no route for GET {path}")
        except ApiError as error:
            self._send_error(error)
        except Exception as error:  # noqa: BLE001 - no tracebacks on the wire
            self._send_error(ApiError(
                500, "internal_error", f"{type(error).__name__}: {error}"
            ))

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        # Until the body is read, its bytes sit in front of the next
        # request on this connection: an error sent before then closes it.
        body_read = False
        try:
            path = urlparse(self.path).path
            if path not in ("/jobs", "/jobs/"):
                raise ApiError(404, "not_found", f"no route for POST {path}")
            body = self._read_body()
            body_read = True
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (ValueError, UnicodeDecodeError) as exc:
                raise ApiError(400, "bad_request",
                               f"request body is not valid JSON: {exc}") from exc
            trace = TraceContext.parse(self.headers.get(TRACE_FIELD))
            job = self.app.submit(payload, trace=trace)
            self._send_json(202, job.to_dict())
        except ApiError as error:
            self._send_error(error, close=not body_read)
        except Exception as error:  # noqa: BLE001 - no tracebacks on the wire
            self._send_error(ApiError(
                500, "internal_error", f"{type(error).__name__}: {error}"
            ), close=not body_read)


class SweepServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the :class:`ServiceApp` reference."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, app: ServiceApp) -> None:
        # Set before binding: a failed bind calls server_close().
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, ServiceRequestHandler)
        self.app = app

    def process_request_thread(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                self._connections.discard(request)

    def server_close(self) -> None:
        """Stop listening and end every keep-alive connection.

        ``SHUT_RD`` wakes a handler idling between requests (it reads
        end-of-stream and exits) while a response being written still
        completes; the client sees the closed connection on its next
        request and retries on a new one.
        """
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass


def build_server(app: ServiceApp, host: str = "127.0.0.1",
                 port: int = 8642) -> SweepServiceServer:
    """Bind the service to ``host:port`` (``port=0`` picks a free port)."""
    return SweepServiceServer((host, port), app)


class ServiceUnderTest:
    """One in-process replica: app + HTTP server on a free port + a client.

    Used by the chaos matrix and the bench's overhead gates.
    ``client_kwargs`` tune the retry policy of the returned client;
    callers that must observe raw failures pass ``retries=0``.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 client_kwargs: Optional[dict] = None,
                 **app_kwargs) -> None:
        app_kwargs.setdefault("jobs", 1)  # chaos seams fire in-process only
        app_kwargs.setdefault("job_concurrency", 1)
        self.app = ServiceApp(cache_dir=cache_dir, **app_kwargs)
        self.server = build_server(self.app, port=0)
        self.port = self.server.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()
        self.app.start()
        kwargs = dict(client_kwargs or {})
        kwargs.setdefault("timeout", 30.0)
        self.client = ServiceClient(self.url, **kwargs)

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.app.stop(drain=True, timeout=30.0)
