"""Persistent connections between ServiceClient and the HTTP server.

Every test runs against a live ``build_server`` on a loopback port and
counts the TCP connections the server accepts, so connection reuse is
observed on the wire rather than inferred from the client's state.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.service import ServiceApp, ServiceClient, ServiceError, build_server
from repro.service.server import MAX_BODY_BYTES, ServiceRequestHandler


def points_spec(benchmark: str) -> dict:
    return {
        "points": [
            {
                "benchmark": benchmark,
                "architecture": "single-banked/1c",
                "factory": {"type": "SingleBankedFactory", "parameters": {"latency": 1}},
                "config": {"max_instructions": 200},
            },
        ],
    }


class LiveServer:
    """An app behind ``build_server`` that records accepted sockets."""

    def __init__(self, cache_dir: str, port: int = 0) -> None:
        self.app = ServiceApp(cache_dir=cache_dir, jobs=1, job_concurrency=1)
        self.server = build_server(self.app, port=port)
        self.accepted = []
        accept = self.server.get_request

        def counting_accept():
            request = accept()
            self.accepted.append(request[0])
            return request

        self.server.get_request = counting_accept
        self.clients = []
        self.port = self.server.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.app.start()

    def client(self, url: str = "") -> ServiceClient:
        client = ServiceClient(url or self.url)
        self.clients.append(client)
        return client

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.app.stop()


@pytest.fixture
def live(tmp_path):
    server = LiveServer(str(tmp_path))
    yield server
    server.stop()


def wait_for_handlers_to_exit(server, timeout: float = 10.0) -> bool:
    """Whether every connection handler of ``server`` ended in time."""
    deadline = time.monotonic() + timeout
    while server._connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return not server._connections


def read_response(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes the connection."""
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection(self, live):
        client = live.client()
        for _ in range(5):
            assert client.health()["status"] == "ok"
        job = client.submit(points_spec("gcc"))
        client.watch(job["id"], interval=0.02, timeout=60)
        client.result(job["id"])
        client.result(job["id"], fmt="csv")
        client.metrics()
        assert len(live.accepted) == 1
        assert client.retried == 0

    def test_nodelay_on_both_ends(self, live):
        client = live.client()
        client.health()
        client_sock = client._local.connection.sock
        assert client_sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert ServiceRequestHandler.disable_nagle_algorithm is True
        (server_sock,) = live.accepted
        assert server_sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_threads_sharing_a_client_get_their_own_records(self, live):
        client = live.client()
        barrier = threading.Barrier(2)
        seen = {}
        errors = []

        def worker(benchmark: str) -> None:
            try:
                barrier.wait(timeout=10)
                job = client.submit(points_spec(benchmark))
                records = [client.status(job["id"]) for _ in range(20)]
                seen[benchmark] = (job["id"], records)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(name,)) for name in ("gcc", "swim")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        for benchmark, (job_id, records) in seen.items():
            assert {record["id"] for record in records} == {job_id}
            benchmarks = {record["spec"]["points"][0]["benchmark"] for record in records}
            assert benchmarks == {benchmark}
        assert seen["gcc"][0] != seen["swim"][0]
        assert len(live.accepted) == 2  # one connection per thread

    def test_replaced_server_costs_one_counted_retry(self, tmp_path):
        first = LiveServer(str(tmp_path / "first"))
        client = ServiceClient(first.url, _sleep=lambda _s: None)
        try:
            client.health()
        finally:
            first.stop()
        assert wait_for_handlers_to_exit(first.server)
        second = LiveServer(str(tmp_path / "second"), port=first.port)
        second.clients.append(client)
        try:
            assert client.health()["status"] == "ok"
            assert client.retried == 1
            assert len(second.accepted) == 1
        finally:
            second.stop()

    def test_close_ends_every_threads_connection(self, live):
        client = live.client()
        client.health()
        worker = threading.Thread(target=client.health)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(live.accepted) == 2
        client.close()
        assert wait_for_handlers_to_exit(live.server)  # both saw end-of-stream
        assert client.health()["status"] == "ok"
        assert len(live.accepted) == 3
        assert client.retried == 0

    def test_base_url_path_prefix_is_kept(self, live):
        client = live.client(live.url + "/prefix/")
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.code == "not_found"
        assert "GET /prefix/healthz" in str(excinfo.value)


class TestUnreadBody:
    def test_unknown_post_route_closes_before_the_next_request(self, live):
        connection = http.client.HTTPConnection("127.0.0.1", live.port, timeout=10)
        connection.request(
            "POST",
            "/nope",
            body=json.dumps(points_spec("gcc")).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 404
        assert body["error"]["code"] == "not_found"
        assert response.getheader("Connection") == "close"
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        connection.close()

    @pytest.mark.parametrize("length", ["banana", str(MAX_BODY_BYTES + 1)])
    def test_rejected_content_length_answers_once_and_closes(self, live, length):
        post = f"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
        payload = '{"figure": "figure6"}'
        pipelined = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", live.port), timeout=10) as sock:
            sock.sendall((post + payload + pipelined).encode())
            reply = read_response(sock)
        assert reply.count(b"HTTP/1.1 ") == 1
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["code"] == "bad_request"
