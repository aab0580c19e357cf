"""Command-line interface of the sweep service.

Run the server (long-lived; SIGTERM drains running jobs and exits)::

    python -m repro.service serve --port 8642 --cache-dir .simcache --jobs 4

Talk to it::

    job=$(python -m repro.service submit --figure figure6 --instructions 2000)
    python -m repro.service watch  "$job"
    python -m repro.service status "$job"
    python -m repro.service result "$job" --format csv
    python -m repro.service metrics

``submit`` prints the new job id alone on stdout (shell-friendly);
everything narrative goes to stderr.  Server-side rejections are
printed verbatim as ``error: [<code>] <message>``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.obs import logging as obs_logging
from repro.service.app import ServiceApp
from repro.service.client import DEFAULT_URL, ServiceClient, ServiceError
from repro.service.jobs import COMPLETED
from repro.service.server import build_server
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the sweep service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (default: 8642; 0 picks a free port)")
    serve.add_argument("--cache-dir", default=None,
                       help="directory for the persistent result/trace/job "
                            "stores; omit for a memory-only (non-resumable) "
                            "service")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the simulation fan-out "
                            "(default: 1, serial)")
    serve.add_argument("--job-concurrency", type=int, default=2,
                       help="jobs executed concurrently; identical in-flight "
                            "points are single-flighted (default: 2)")
    serve.add_argument("--replica-id", default=None,
                       help="stable replica identity for leases/metrics "
                            "(default: host-pid-random)")
    serve.add_argument("--lease-ttl", type=float, default=None,
                       help="job lease lifetime in seconds; a replica dead "
                            "longer than this has its jobs stolen "
                            "(default: 15)")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       help="reject submissions with a structured 503 "
                            "'overloaded' (plus Retry-After) once this many "
                            "jobs are waiting (default: unbounded)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port to this file once "
                            "listening — pair with --port 0 for race-free "
                            "ephemeral ports in scripts and CI")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress progress lines on stderr")
    serve.add_argument("--log-level", default="info",
                       choices=("debug", "info", "warning", "error"),
                       help="stderr log verbosity (default: info)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit log lines as JSON objects (one per line) "
                            "carrying the active trace_id")

    def client_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--url", default=DEFAULT_URL,
                             help=f"service base URL (default: {DEFAULT_URL})")
        return command

    submit = client_parser("submit", "submit a sweep job; prints the job id")
    group = submit.add_mutually_exclusive_group(required=True)
    group.add_argument("--figure", default=None,
                       help="named figure plan to run (or 'all')")
    group.add_argument("--points-file", default=None,
                       help="JSON file with an explicit {'points': [...]} spec")
    submit.add_argument("--instructions", type=int, default=None,
                        help="committed instructions per benchmark per run")
    submit.add_argument("--warmup-instructions", type=int, default=None,
                        help="warmup instructions per run")
    submit.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict the figure plan to these benchmarks")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority; higher runs first (default: 0)")
    submit.add_argument("--sample", default=None,
                        metavar="STRIDE:WINDOW[:WARMUP]",
                        help="estimate every point by systematic interval "
                             "sampling instead of exact simulation "
                             "(server-validated; default: exact)")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="server-side wall-clock budget from submission; "
                             "an unfinished job fails with cause "
                             "deadline_exceeded (default: unbounded)")
    submit.add_argument("--wait", action="store_true",
                        help="watch the job until it finishes")

    status = client_parser("status", "print one job's status record")
    status.add_argument("job_id")

    result = client_parser("result", "print a completed job's result")
    result.add_argument("job_id")
    result.add_argument("--format", default="json", choices=("json", "csv"),
                        help="result rendering (default: json)")

    watch = client_parser("watch", "poll a job until it finishes")
    watch.add_argument("job_id")
    watch.add_argument("--interval", type=float, default=0.5,
                       help="initial poll interval in seconds (default: 0.5); "
                            "backs off with jitter while the job is idle")
    watch.add_argument("--timeout", type=float, default=None,
                       help="give up after this many seconds")

    client_parser("metrics", "print the service metrics snapshot")
    client_parser("health", "print the service health record")
    return parser


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def _run_serve(args: argparse.Namespace) -> int:
    # Progress lines flow through the stdlib logger so --log-level
    # filters them and --log-json turns them into machine-readable
    # records stamped with the active trace_id.
    obs_logging.setup(level=args.log_level, json_lines=args.log_json)
    logger = obs_logging.get_logger("service")

    def progress(message: str) -> None:
        logger.info(message)

    lease_kwargs = {}
    if args.lease_ttl is not None:
        lease_kwargs["lease_ttl"] = args.lease_ttl

    try:
        app = ServiceApp(
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            job_concurrency=args.job_concurrency,
            progress=None if args.quiet else progress,
            replica_id=args.replica_id,
            max_queue_depth=args.max_queue_depth,
            **lease_kwargs,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        server = build_server(app, host=args.host, port=args.port)
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2

    app.start()
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    print(
        f"repro.service {__version__} serving on http://{host}:{port} "
        f"(cache: {args.cache_dir or 'memory only'}, jobs={args.jobs}, "
        f"job-concurrency={args.job_concurrency}, "
        f"replica={app.replica_id})",
        file=sys.stderr, flush=True,
    )

    if args.port_file:
        # Written only after the server is bound and serving, so a
        # script can block on the file's existence instead of polling
        # the port (and `--port 0` becomes race-free in CI).
        try:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{port}\n")
        except OSError as error:
            print(f"error: cannot write --port-file: {error}",
                  file=sys.stderr)
            server.shutdown()
            server.server_close()
            app.stop(drain=False)
            return 2

    stop = threading.Event()

    def request_shutdown(signum, frame) -> None:  # noqa: ARG001
        stop.set()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)

    while not stop.is_set():
        stop.wait(0.5)
    print("shutdown: draining running jobs...", file=sys.stderr, flush=True)
    server.shutdown()
    server.server_close()
    app.stop(drain=True)
    print("shutdown: complete", file=sys.stderr, flush=True)
    return 0


# ----------------------------------------------------------------------
# client commands
# ----------------------------------------------------------------------


def _print_job_line(job: dict) -> None:
    points = job.get("points", {})
    print(
        f"job {job.get('id')}: {job.get('state')} "
        f"[{points.get('completed', 0)}/{points.get('unique', 0)} points]",
        file=sys.stderr, flush=True,
    )


def _watch(client: ServiceClient, job_id: str, interval: float = 0.5,
           timeout: Optional[float] = None) -> int:
    last_phase = [None]

    def on_phase(event: dict) -> None:
        phase = event.get("phase")
        if phase == last_phase[0]:
            return
        last_phase[0] = phase
        print(f"job {job_id}: phase {phase}", file=sys.stderr, flush=True)

    job = client.watch(job_id, interval=interval, timeout=timeout,
                       on_update=_print_job_line,
                       on_phase=on_phase)
    # Final span breakdown (queue wait / lease hold / execute) from the
    # event stream; older servers without /events just skip it.
    breakdown = client.job_span_breakdown(job_id)
    if breakdown:
        parts = ", ".join(
            f"{name} {seconds:.3f}s"
            for name, seconds in sorted(breakdown.items())
        )
        print(f"job {job_id}: spans {parts}", file=sys.stderr, flush=True)
    if job.get("state") == COMPLETED:
        return 0
    error = job.get("error") or {}
    print(f"error: [{error.get('code', 'unknown')}] "
          f"{error.get('message', 'job failed')}", file=sys.stderr)
    return 1


def _run_submit(args: argparse.Namespace, client: ServiceClient) -> int:
    if args.points_file is not None:
        try:
            with open(args.points_file, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read points file: {error}", file=sys.stderr)
            return 2
        if isinstance(spec, dict):
            spec.setdefault("priority", args.priority)
            if args.sample is not None:
                spec.setdefault("sample", args.sample)
            if args.deadline is not None:
                spec.setdefault("deadline_s", args.deadline)
    else:
        settings: dict = {}
        if args.instructions is not None:
            settings["instructions"] = args.instructions
        if args.warmup_instructions is not None:
            settings["warmup_instructions"] = args.warmup_instructions
        if args.benchmarks is not None:
            settings["benchmarks"] = args.benchmarks
        spec = {"figure": args.figure, "settings": settings,
                "priority": args.priority}
        if args.sample is not None:
            # Passed through verbatim; the server validates and echoes
            # the resolved spec (422 invalid_sampling on bad values).
            spec["sample"] = args.sample
        if args.deadline is not None:
            spec["deadline_s"] = args.deadline
    job = client.submit(spec)
    _print_job_line(job)
    print(job["id"])
    if args.wait:
        return _watch(client, job["id"])
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    client = ServiceClient(base_url=args.url)
    try:
        if args.command == "submit":
            return _run_submit(args, client)
        if args.command == "status":
            print(json.dumps(client.status(args.job_id), indent=2,
                             sort_keys=True))
            return 0
        if args.command == "result":
            result = client.result(args.job_id, fmt=args.format)
            if args.format == "csv":
                print(result, end="")
            else:
                print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        if args.command == "watch":
            return _watch(client, args.job_id, interval=args.interval,
                          timeout=args.timeout)
        if args.command == "metrics":
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0
        if args.command == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
    except ServiceError as error:
        # The server's structured error, verbatim: "error: [<code>] <message>".
        print(f"error: {error}", file=sys.stderr)
        return 2 if error.status is None else 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
