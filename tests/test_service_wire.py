"""HTTP/1.1 on the wire: the shared head reader and both ends' framing.

``repro.service.wire.read_head`` is checked on byte strings: case,
first-occurrence-wins, and the limits it shares with the standard
library.  The rest runs against a live ``build_server`` on a loopback
port over raw sockets, so what is checked is what crosses the wire:
each JSON response and each client request leaves in one ``sendall``,
pipelined requests are answered in order, ``Expect: 100-continue`` is
honoured, and a request the server cannot parse gets a JSON error.
"""

from __future__ import annotations

import email.utils
import io
import json
import socket
import threading

import pytest

from repro.service import ServiceApp, ServiceClient, ServiceError, build_server
from repro.service.server import http_date
from repro.service.wire import MAX_HEADERS, MAX_LINE, HeadError, read_head

POINTS_SPEC = {
    "points": [
        {
            "benchmark": "gcc",
            "architecture": "single-banked/1c",
            "factory": {"type": "SingleBankedFactory", "parameters": {"latency": 1}},
            "config": {"max_instructions": 200},
        },
    ],
}


def head(*lines: bytes) -> io.BytesIO:
    return io.BytesIO(b"".join(line + b"\r\n" for line in lines) + b"\r\n")


class TestReadHead:
    def test_names_are_lower_cased_and_values_stripped(self):
        headers = read_head(head(b"Content-Length:  12 ", b"X-Repro-Trace:\tab-cd"))
        assert headers == {"content-length": "12", "x-repro-trace": "ab-cd"}

    def test_the_first_occurrence_wins(self):
        headers = read_head(head(b"Connection: close", b"connection: keep-alive"))
        assert headers == {"connection": "close"}

    def test_reading_stops_at_the_blank_line(self):
        stream = io.BytesIO(b"A: 1\r\n\r\nGET / HTTP/1.1\r\n")
        assert read_head(stream) == {"a": "1"}
        assert stream.read() == b"GET / HTTP/1.1\r\n"

    def test_bare_newlines_and_end_of_stream_end_a_head(self):
        assert read_head(io.BytesIO(b"A: 1\nB: 2\n\n")) == {"a": "1", "b": "2"}
        assert read_head(io.BytesIO(b"A: 1\r\n")) == {"a": "1"}

    def test_a_line_of_the_limit_is_read(self):
        line = b"A: " + b"x" * (MAX_LINE - 5)
        assert len(line + b"\r\n") == MAX_LINE
        assert read_head(head(line))["a"] == "x" * (MAX_LINE - 5)

    def test_a_longer_line_is_refused(self):
        line = b"A: " + b"x" * (MAX_LINE - 4)
        assert len(line + b"\r\n") == 65537
        with pytest.raises(HeadError) as excinfo:
            read_head(head(line))
        assert excinfo.value.status == 431

    def test_a_hundred_lines_are_read_and_one_more_is_refused(self):
        lines = [f"H{i}: {i}".encode() for i in range(MAX_HEADERS)]
        assert len(read_head(head(*lines))) == 100
        with pytest.raises(HeadError) as excinfo:
            read_head(head(*lines, b"H100: 100"))
        assert excinfo.value.status == 431

    @pytest.mark.parametrize("fold", [b" folded", b"\tfolded"])
    def test_obsolete_line_folding_is_refused(self, fold):
        with pytest.raises(HeadError) as excinfo:
            read_head(head(b"A: 1", fold))
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("line", [b"no colon", b": empty name", b"A B: space"])
    def test_malformed_lines_are_refused(self, line):
        with pytest.raises(HeadError) as excinfo:
            read_head(head(line))
        assert excinfo.value.status == 400


def test_http_date_is_what_email_writes():
    for seconds in (0, 951782400, 1_700_000_000.5, 2_000_000_000):
        assert http_date(seconds) == email.utils.formatdate(seconds, usegmt=True)


class CountingSocket:
    """A socket whose sends are counted; everything else is delegated."""

    def __init__(self, sock: socket.socket, sends: list) -> None:
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *args):
        self._sends.append(bytes(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._sends.append(bytes(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture
def live(tmp_path):
    """A live server whose accepted sockets count their sends."""
    app = ServiceApp(cache_dir=str(tmp_path), jobs=1, job_concurrency=1)
    server = build_server(app, port=0)
    server.sends = []
    accept = server.get_request

    def counting_accept():
        sock, address = accept()
        return CountingSocket(sock, server.sends), address

    server.get_request = counting_accept
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    app.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    app.stop()


def url_of(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}"


def exchange(server, data: bytes) -> bytes:
    """Send ``data`` on a new connection; everything until the close."""
    with socket.create_connection(server.server_address, timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def split_responses(data: bytes) -> list:
    """``(status, headers, body)`` of each response in ``data``."""
    responses = []
    while data:
        head_bytes, _, rest = data.partition(b"\r\n\r\n")
        status_line, *lines = head_bytes.decode("iso-8859-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        responses.append((int(status_line.split(" ")[1]), headers, rest[:length]))
        data = rest[length:]
    return responses


class TestOneWritePerMessage:
    def test_each_json_response_is_one_send(self, live):
        client = ServiceClient(url_of(live))
        try:
            client.health()
            job = client.submit(POINTS_SPEC)
            client.watch(job["id"], interval=0.02, timeout=60)
            live.sends.clear()
            client.status(job["id"])
            client.result(job["id"])
            client.result(job["id"], fmt="csv")
            with pytest.raises(ServiceError):
                client.status("nosuchjob")
        finally:
            client.close()
        assert len(live.sends) == 4
        for sent in live.sends:
            (status, headers, body), = split_responses(sent)
            assert int(headers["content-length"]) == len(body)

    def test_each_post_is_one_send(self, live, monkeypatch):
        sends = []
        connect = socket.create_connection
        monkeypatch.setattr(
            socket, "create_connection",
            lambda *args, **kwargs: CountingSocket(connect(*args, **kwargs), sends),
        )
        client = ServiceClient(url_of(live))
        try:
            client.submit(POINTS_SPEC)
            client.submit(POINTS_SPEC)
            client.health()
        finally:
            client.close()
        assert len(sends) == 3
        assert [sent.split(b" ", 1)[0] for sent in sends] == [b"POST", b"POST", b"GET"]
        body = sends[0].partition(b"\r\n\r\n")[2]
        assert json.loads(body) == POINTS_SPEC


class TestFraming:
    def test_pipelined_requests_are_answered_in_order(self, live):
        requests = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /jobs/nosuchjob HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        responses = split_responses(exchange(live, requests))
        assert [status for status, _, _ in responses] == [200, 404, 200]
        assert json.loads(responses[0][2])["status"] == "ok"
        assert json.loads(responses[1][2])["error"]["code"] == "job_not_found"
        assert "queue" in json.loads(responses[2][2])
        assert responses[2][1]["connection"] == "close"

    def test_expect_100_continue_is_answered_before_the_body(self, live):
        body = json.dumps(POINTS_SPEC).encode()
        request = (
            f"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n"
        ).encode()
        with socket.create_connection(live.server_address, timeout=10) as sock:
            sock.sendall(request)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        (status, _, job), (health, _, _) = split_responses(reply)
        assert status == 202
        assert json.loads(job)["spec"]["points"][0]["benchmark"] == "gcc"
        assert health == 200

    @pytest.mark.parametrize(
        "version, keep_open",
        [
            ("HTTP/1.1", True),
            ("HTTP/1.1\r\nConnection: close", False),
            ("HTTP/1.0", False),
            ("HTTP/1.0\r\nConnection: keep-alive", True),
        ],
    )
    def test_keep_alive_rules(self, live, version, keep_open):
        requests = (
            f"GET /healthz {version}\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        responses = split_responses(exchange(live, requests.encode()))
        assert len(responses) == (2 if keep_open else 1)


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "request_bytes, status, code",
        [
            (b"GARBAGE\r\n\r\n", 400, "bad_request"),
            (b"GET /healthz\r\n\r\n", 400, "bad_request"),
            (b"GET /healthz HTTP/x.y\r\n\r\n", 400, "bad_request"),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505, "http_version_not_supported"),
            (
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"x" * 70_000 + b"\r\n\r\n",
                431,
                "request_header_fields_too_large",
            ),
            (b"GET /healthz HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n", 400, "bad_request"),
            (b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 414, "request_uri_too_long"),
            (b"PUT /jobs HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501, "not_implemented"),
        ],
        ids=["garbage", "http09", "bad-version", "http2", "long-header", "obs-fold",
             "long-target", "put"],
    )
    def test_a_malformed_request_gets_a_json_error_and_a_close(
        self, live, request_bytes, status, code
    ):
        followed = request_bytes + b"GET /healthz HTTP/1.1\r\n\r\n"
        reply = exchange(live, followed)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        (got, headers, body), = split_responses(reply)  # nothing more is read
        assert got == status
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json; charset=utf-8"
        assert headers["server"].startswith("repro-sweep-service")
        assert "date" in headers
        error = json.loads(body)["error"]
        assert error["code"] == code
        assert error["message"]


class FakeServer:
    """A one-connection loopback server that answers with canned bytes."""

    def __init__(self, reply: bytes) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.requests = []

        def serve() -> None:
            sock, _ = self.listener.accept()
            with sock:
                self.requests.append(sock.recv(65536))
                sock.sendall(reply)

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.thread.join(timeout=10)
        self.listener.close()


class TestClientFraming:
    @pytest.mark.parametrize(
        "reply",
        [
            b"",
            b"SPDY/3 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nA: 1\r\n folded\r\nContent-Length: 2\r\n\r\n{}",
        ],
        ids=["empty", "not-http", "short-body", "obs-fold"],
    )
    def test_a_broken_response_is_unreachable(self, reply):
        fake = FakeServer(reply)
        try:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(fake.url, retries=0).health()
        finally:
            fake.close()
        assert excinfo.value.code == "unreachable"

    def test_a_close_delimited_body_is_read_to_the_end(self):
        fake = FakeServer(b'HTTP/1.1 200 OK\r\nX-A: 1\r\n\r\n{"status": "ok"}')
        client = ServiceClient(fake.url + "/sub", retries=0)
        try:
            assert client.health() == {"status": "ok"}
        finally:
            fake.close()
        request = fake.requests[0]
        assert request.startswith(b"GET /sub/healthz HTTP/1.1\r\n")
        assert f"Host: {fake.url[7:]}\r\n".encode() in request
        assert client._local.connection is None  # retired with the body

    def test_an_error_keeps_its_retry_after(self):
        fake = FakeServer(
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 7\r\n"
            b"Content-Length: 2\r\nConnection: close\r\n\r\n{}"
        )
        try:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(fake.url, retries=0).health()
        finally:
            fake.close()
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 7.0
