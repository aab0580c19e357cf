"""HTTP API and client CLI of the sweep service.

One in-process server (port 0) per test class; requests go through the
real socket path via :class:`ServiceClient`, raw ``urllib`` for the
malformed-payload cases, and ``repro.service.__main__`` for the CLI.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceApp, ServiceClient, ServiceError, build_server
from repro.service.__main__ import main as service_main
from repro.service.jobs import COMPLETED
from repro.service.server import ServiceUnderTest
from repro.storage import Database

FIGURE_SPEC = {
    "figure": "figure6",
    "settings": {
        "instructions": 200,
        "warmup_instructions": 50,
        "benchmarks": ["gcc"],
    },
}


@pytest.fixture
def service(tmp_path):
    app = ServiceApp(cache_dir=str(tmp_path), jobs=1, job_concurrency=2)
    server = build_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    app.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    yield url, app
    server.shutdown()
    server.server_close()
    app.stop()


def raw_request(url: str, method: str = "GET", body: bytes = None,
                content_type: str = "application/json"):
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": content_type} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestHttpApi:
    def test_healthz_and_metrics(self, service):
        url, _ = service
        client = ServiceClient(url)
        health = client.health()
        from repro import __version__

        assert health["status"] == "ok"
        assert health["version"] == __version__
        metrics = client.metrics()
        assert metrics["version"] == __version__
        assert metrics["queue"]["depth"] == 0
        assert set(metrics["jobs"]) >= {"queued", "running", "completed",
                                        "failed", "total"}
        assert "hit_rate" in metrics["result_cache"]
        assert "hit_rate" in metrics["trace_cache"]
        assert "pool_resets" in metrics["engine"]

    def test_submit_watch_result_round_trip(self, service):
        url, _ = service
        client = ServiceClient(url)
        job = client.submit(FIGURE_SPEC)
        assert job["state"] == "queued"
        final = client.watch(job["id"], interval=0.05, timeout=120)
        assert final["state"] == COMPLETED
        result = client.result(job["id"])
        assert result["result"]["kind"] == "figures"
        csv_text = client.result(job["id"], fmt="csv")
        assert csv_text.startswith("experiment,metric,value")
        listing = client.jobs()
        assert any(entry["id"] == job["id"] for entry in listing["jobs"])

    def test_warm_resubmission_executes_nothing(self, service):
        url, _ = service
        client = ServiceClient(url)
        first = client.submit(FIGURE_SPEC)
        client.watch(first["id"], interval=0.05, timeout=120)
        executed_before = client.metrics()["points"]["executed"]
        second = client.submit(FIGURE_SPEC)
        final = client.watch(second["id"], interval=0.05, timeout=120)
        assert final["counters"]["executed"] == 0
        metrics = client.metrics()
        assert metrics["points"]["executed"] == executed_before
        assert metrics["points"]["completed"] > executed_before

    def test_unknown_job_is_structured_404(self, service):
        url, _ = service
        status, payload = raw_request(f"{url}/jobs/doesnotexist0")
        assert status == 404
        assert payload["error"]["code"] == "job_not_found"
        status, payload = raw_request(f"{url}/jobs/doesnotexist0/result")
        assert status == 404
        assert payload["error"]["code"] == "job_not_found"

    def test_malformed_json_is_structured_400(self, service):
        url, _ = service
        status, payload = raw_request(f"{url}/jobs", method="POST",
                                      body=b"{not json at all")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "JSON" in payload["error"]["message"]

    def test_unknown_figure_is_structured_422(self, service):
        url, _ = service
        status, payload = raw_request(
            f"{url}/jobs", method="POST",
            body=json.dumps({"figure": "figure99"}).encode("utf-8"),
        )
        assert status == 422
        assert payload["error"]["code"] == "unknown_figure"

    def test_non_numeric_config_override_is_structured_422(self, service):
        url, app = service
        spec = {"points": [{"benchmark": "gcc",
                            "config": {"max_instructions": "abc"}}]}
        status, payload = raw_request(f"{url}/jobs", method="POST",
                                      body=json.dumps(spec).encode("utf-8"))
        assert status == 422
        assert payload["error"]["code"] == "invalid_point"
        assert app.queue.depth() == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_deadline_is_structured_422(self, service, literal):
        # ``json.loads`` reads both literals, so the server sees a float.
        url, _ = service
        body = ('{"figure": "figure6", "settings": {"instructions": 200, '
                '"benchmarks": ["gcc"]}, "deadline_s": %s}' % literal)
        status, payload = raw_request(f"{url}/jobs", method="POST",
                                      body=body.encode("utf-8"))
        assert status == 422
        assert payload["error"]["code"] == "invalid_spec"

    def test_unknown_route_is_structured_404(self, service):
        url, _ = service
        status, payload = raw_request(f"{url}/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        status, payload = raw_request(f"{url}/healthz", method="POST", body=b"{}")
        assert status == 404

    def test_retired_search_shape_is_rejected(self, service):
        url, _ = service
        status, payload = raw_request(
            f"{url}/jobs", method="POST",
            body=json.dumps({"search": {"space": "figure8"}}).encode("utf-8"),
        )
        assert status == 422
        assert payload["error"]["code"] == "invalid_spec"
        assert "'figure'" in payload["error"]["message"]
        assert "'points'" in payload["error"]["message"]
        for method, body in (("POST", b"{}"), ("GET", None)):
            status, payload = raw_request(f"{url}/search", method=method,
                                          body=body)
            assert status == 404
            assert payload["error"]["code"] == "not_found"

    def test_result_before_completion_is_409(self, service):
        url, app = service
        # Admit without executing: stop the executors first.
        app.stop(drain=True)
        client = ServiceClient(url)
        job = client.submit(FIGURE_SPEC)
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "job_not_completed"


def _point(architecture: str, instructions: int) -> dict:
    return {"benchmark": "gcc", "architecture": architecture,
            "config": {"max_instructions": instructions}}


@pytest.fixture
def writes(monkeypatch):
    """Every ``(sql, params)`` write statement the database runs."""
    log = []
    real_write = Database.write

    def recording(self, sql, params=()):
        log.append((sql, params))
        return real_write(self, sql, params)

    monkeypatch.setattr(Database, "write", recording)
    return log


def _writes(log: list, table: str, key: str) -> list:
    """The verbs (``INSERT``/``UPDATE``/``DELETE``) of the logged writes
    to ``table`` that name ``key``, in order."""
    return [sql.split()[0] for sql, params in log
            if table in sql.split() and key in params]


class TestAdmissionAnswer:
    """A plan whose every point is stored completes inside its POST."""

    SPEC = {"points": [_point("admit/a", 200), _point("admit/b", 201)]}

    def test_resubmitted_plan_is_completed_in_the_post_response(self, service):
        url, _ = service
        client = ServiceClient(url)
        first = client.submit(self.SPEC)
        assert first["state"] == "queued"
        client.watch(first["id"], interval=0.05, timeout=120)
        second = client.submit(self.SPEC)
        assert second["state"] == COMPLETED
        assert second["counters"]["executed"] == 0
        assert second["points"]["completed"] == 2
        assert (client.result(second["id"])["result"]
                == client.result(first["id"])["result"])

    def test_answered_job_writes_one_record_and_no_lease(self, writes, service):
        url, _ = service
        client = ServiceClient(url)
        first = client.submit(self.SPEC)
        client.watch(first["id"], interval=0.05, timeout=120)
        second = client.submit(self.SPEC)
        assert _writes(writes, "jobs", second["id"]) == ["INSERT"]
        assert _writes(writes, "claims", second["id"]) == []
        # The queued job took the executor path: queued, running and
        # completed records, and a lease acquired (maybe renewed) and
        # released.
        assert len(_writes(writes, "jobs", first["id"])) >= 3
        lease = _writes(writes, "claims", first["id"])
        assert lease[0] == "INSERT" and lease[-1] == "DELETE"

    def test_plan_with_one_unstored_point_is_queued(self, writes, service):
        url, _ = service
        client = ServiceClient(url)
        first = client.submit({"points": [_point("admit/a", 200)]})
        client.watch(first["id"], interval=0.05, timeout=120)
        second = client.submit(self.SPEC)
        assert second["state"] == "queued"
        final = client.watch(second["id"], interval=0.05, timeout=120)
        assert final["state"] == COMPLETED
        assert final["counters"]["executed"] == 1
        assert final["counters"]["cached"] == 1
        lease = _writes(writes, "claims", second["id"])
        assert lease[0] == "INSERT" and lease[-1] == "DELETE"

    def test_four_concurrent_resubmissions_complete_alike(self, service):
        url, _ = service
        first = ServiceClient(url).submit(self.SPEC)
        ServiceClient(url).watch(first["id"], interval=0.05, timeout=120)
        barrier = threading.Barrier(4)
        answers = [None] * 4

        def submit(slot: int) -> None:
            client = ServiceClient(url)  # its own connection
            barrier.wait()
            job = client.submit(self.SPEC)
            answers[slot] = (job["state"], client.result(job["id"]))

        threads = [threading.Thread(target=submit, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert [state for state, _ in answers] == [COMPLETED] * 4
        assert len({body["id"] for _, body in answers}) == 4
        bodies = [json.dumps(body["result"], sort_keys=True)
                  for _, body in answers]
        assert len(set(bodies)) == 1


class TestClientErrors:
    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.code == "unreachable"
        assert excinfo.value.status is None


class TestServeBind:
    def test_a_taken_port_is_an_oserror(self):
        # ``serve`` turns an OSError into "error: cannot bind", exit 2.
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(OSError):
                build_server(ServiceApp(cache_dir=None, jobs=1),
                             port=taken.getsockname()[1])


class TestServeArguments:
    @pytest.fixture(autouse=True)
    def _restore_repro_logger(self):
        # ``serve`` configures the ``repro`` logger before it validates.
        logger = logging.getLogger("repro")
        saved = (list(logger.handlers), logger.level, logger.propagate)
        yield
        logger.handlers[:], logger.level, logger.propagate = saved

    @pytest.mark.parametrize("flag,option", [
        ("--jobs", "jobs"),
        ("--job-concurrency", "job_concurrency"),
        ("--max-queue-depth", "max_queue_depth"),
    ])
    def test_non_positive_counts_exit_two(self, flag, option, capsys):
        code = service_main(["serve", "--port", "0", "--quiet", flag, "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{option} must be at least 1" in err


class TestClientCli:
    def test_submit_watch_status_result(self, service, capsys):
        url, _ = service
        code = service_main([
            "submit", "--figure", "figure6", "--instructions", "200",
            "--warmup-instructions", "50", "--benchmarks", "gcc",
            "--url", url, "--wait",
        ])
        assert code == 0
        captured = capsys.readouterr()
        job_id = captured.out.strip().splitlines()[-1]
        assert len(job_id) == 12

        assert service_main(["status", job_id, "--url", url]) == 0
        status_payload = json.loads(capsys.readouterr().out)
        assert status_payload["state"] == COMPLETED

        assert service_main(["result", job_id, "--format", "csv",
                             "--url", url]) == 0
        assert capsys.readouterr().out.startswith("experiment,metric,value")

        assert service_main(["metrics", "--url", url]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["jobs"]["completed"] >= 1

    def test_cli_surfaces_server_error_verbatim(self, service, capsys):
        url, _ = service
        code = service_main(["submit", "--figure", "figure99", "--url", url])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: [unknown_figure]" in captured.err
        assert "figure99" in captured.err

    def test_cli_surfaces_404_verbatim(self, service, capsys):
        url, _ = service
        code = service_main(["status", "doesnotexist0", "--url", url])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: [job_not_found]" in captured.err
        assert "doesnotexist0" in captured.err

    def test_cli_unreachable_exit_code(self, capsys):
        code = service_main(["health", "--url", "http://127.0.0.1:1"])
        assert code == 2
        assert "error: [unreachable]" in capsys.readouterr().err


class TestSubmitPointsFile:
    """``submit --points-file``: the file is the spec, flags fill gaps."""

    SPEC = {"points": [_point("file/a", 200), _point("file/b", 201)]}

    @pytest.fixture
    def sut(self, tmp_path):
        sut = ServiceUnderTest(cache_dir=str(tmp_path / "cache"))
        yield sut
        sut.stop()

    def _write(self, tmp_path, spec) -> str:
        path = tmp_path / "points.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def test_a_points_file_runs_like_a_client_submission(self, sut, tmp_path, capsys):
        code = service_main(["submit", "--points-file",
                             self._write(tmp_path, self.SPEC),
                             "--url", sut.url, "--wait"])
        assert code == 0
        job_id = capsys.readouterr().out.strip().splitlines()[-1]
        assert sut.client.status(job_id)["state"] == COMPLETED
        reference = ServiceUnderTest(cache_dir=None)
        try:
            job = reference.client.submit(self.SPEC)
            reference.client.watch(job["id"], interval=0.05, timeout=120)
            expected = reference.client.result(job["id"])["result"]
        finally:
            reference.stop()
        assert sut.client.result(job_id)["result"] == expected

    def test_values_in_the_file_win_over_the_flag_defaults(self, sut, tmp_path, capsys):
        spec = dict(self.SPEC, priority=5, sample="100:50", deadline_s=600)
        code = service_main(["submit", "--points-file",
                             self._write(tmp_path, spec),
                             "--priority", "1", "--sample", "200:40",
                             "--deadline", "30", "--url", sut.url])
        assert code == 0
        job_id = capsys.readouterr().out.strip().splitlines()[-1]
        submitted = sut.client.status(job_id)["spec"]
        assert submitted["priority"] == 5
        assert submitted["deadline_s"] == 600.0
        assert (submitted["sample"]["stride"], submitted["sample"]["window"]) == (100, 50)

    def test_the_flags_fill_what_the_file_leaves_out(self, sut, tmp_path, capsys):
        code = service_main(["submit", "--points-file",
                             self._write(tmp_path, self.SPEC),
                             "--priority", "1", "--sample", "200:40",
                             "--deadline", "30", "--url", sut.url])
        assert code == 0
        job_id = capsys.readouterr().out.strip().splitlines()[-1]
        submitted = sut.client.status(job_id)["spec"]
        assert submitted["priority"] == 1
        assert submitted["deadline_s"] == 30.0
        assert (submitted["sample"]["stride"], submitted["sample"]["window"]) == (200, 40)

    def test_a_factory_that_cannot_build_is_refused(self, sut, tmp_path, capsys):
        spec = {"points": [{"benchmark": "gcc",
                            "factory": {"type": "RegisterFileCacheFactory",
                                        "parameters": {"caching": "bogus"}}}]}
        code = service_main(["submit", "--points-file",
                             self._write(tmp_path, spec), "--url", sut.url])
        assert code == 1
        assert "error: [invalid_point]" in capsys.readouterr().err
        assert sut.client.metrics()["queue"]["depth"] == 0

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_an_unreadable_or_invalid_file_exits_two(self, sut, tmp_path, capsys, content):
        path = tmp_path / "points.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code = service_main(["submit", "--points-file", str(path),
                             "--url", sut.url])
        assert code == 2
        assert "error: cannot read points file" in capsys.readouterr().err
        assert sut.client.metrics()["queue"]["depth"] == 0


class TestWatchBackoff:
    """``ServiceClient.watch`` must not busy-poll an idle job: the poll
    interval backs off geometrically (with jitter) while nothing changes
    and snaps back to ``interval`` on any observed progress."""

    @staticmethod
    def _job(state, completed=0):
        return {"id": "j0", "state": state, "points": {"completed": completed}}

    def _scripted_client(self, records):
        client = ServiceClient("http://127.0.0.1:1")  # never dialled
        queue = list(records)
        client.status = lambda job_id: queue.pop(0)
        return client

    def test_idle_watch_backs_off_to_the_cap(self):
        client = self._scripted_client(
            [self._job("queued")] * 10 + [self._job(COMPLETED)]
        )
        sleeps = []
        final = client.watch("j0", interval=0.1, max_interval=1.0,
                             jitter=0.0, _sleep=sleeps.append)
        assert final["state"] == COMPLETED
        # The first poll observes a fresh state, so the delay starts at
        # the base interval; every idle poll after that grows it until
        # the cap, where it stays.
        assert sleeps[0] == pytest.approx(0.1)
        assert all(b >= a for a, b in zip(sleeps, sleeps[1:]))
        assert sleeps[-1] == pytest.approx(1.0)
        assert max(sleeps) <= 1.0 + 1e-9
        assert sleeps[1] == pytest.approx(0.16)  # x1.6 geometric growth

    def test_progress_resets_the_delay(self):
        client = self._scripted_client(
            [self._job("queued")] * 4
            + [self._job("running", completed=1)] * 3
            + [self._job(COMPLETED, completed=2)]
        )
        sleeps = []
        client.watch("j0", interval=0.1, max_interval=1.0, jitter=0.0,
                     _sleep=sleeps.append)
        assert sleeps[3] > sleeps[0]  # idle polls had backed off...
        assert sleeps[4] == pytest.approx(0.1)  # ...progress resets
        assert sleeps[5] == pytest.approx(0.16)

    def test_jitter_stays_within_bounds(self):
        client = self._scripted_client(
            [self._job("queued")] * 8 + [self._job(COMPLETED)]
        )
        sleeps = []
        client.watch("j0", interval=0.1, max_interval=1.0, jitter=0.2,
                     _sleep=sleeps.append)
        expected = 0.1
        for index, actual in enumerate(sleeps):
            assert expected * 0.8 - 1e-9 <= actual <= expected * 1.2 + 1e-9, index
            expected = min(expected * 1.6, 1.0)

    def test_terminal_job_returns_without_sleeping(self):
        client = self._scripted_client([self._job(COMPLETED, completed=2)])
        sleeps = []
        final = client.watch("j0", interval=0.1, _sleep=sleeps.append)
        assert final["state"] == COMPLETED
        assert sleeps == []
