"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload point-live --seed 1 --seconds 40 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` traces every other unit of the same
work and reports the per-layer metrics.  The line before the result is
a JSON object of details (tail percentile and sample counts, failure
share, per-class service latencies); span records of a traced run go
to ``.perfbench-out/``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line then says ``"correct": false``), 2 when the benchmark
cannot run at all — bad arguments, or no ``src/repro`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working directories inside the checkout (both git-ignored).
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench-tmp")
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")


def build_parser() -> argparse.ArgumentParser:
    from benchlib import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the order and configuration of the inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="cap on the measured time; the work per run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace every other unit, report per-layer metrics")
    return parser


def metric_units(section: str) -> dict:
    """Name to unit of one metric list of BENCHMARK.json, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"]
                for entry in json.load(handle)[section]}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources at {os.path.join(SRC, 'repro')}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    from benchlib import hostspeed
    from benchlib.checks import DigestBook, OutputMismatch
    from benchlib.tracer import Tracer, instrument
    from benchlib.workloads import WORKLOAD_RUNNERS, Context

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{run_id}-", dir=SCRATCH_ROOT)
    context = Context(seed=args.seed, seconds=args.seconds, scratch_dir=scratch,
                      digests=DigestBook.load(),
                      host=hostspeed.for_workload(args.workload, scratch))
    runner = WORKLOAD_RUNNERS[args.workload]
    try:
        if args.trace:
            context.tracer = Tracer(run_id)
            with instrument(context.tracer):
                report = runner(context)
        else:
            report = runner(context)
    except OutputMismatch as error:
        print(f"error: output check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    finally:
        context.host.close()
        shutil.rmtree(scratch, ignore_errors=True)

    details = {"workload": args.workload, "seed": args.seed,
               "accuracy": "not reported: the model is unvalidated against "
                           "hardware (ROADMAP item 4)"}
    details.update(report.details)
    if args.trace:
        units = metric_units("per_layer")
        metrics = report.metrics
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"{run_id}.spans.jsonl")
        context.tracer.write(spans_path)
        details["spans"] = os.path.relpath(spans_path, ROOT)
        details["untraced_entry_points"] = context.tracer.missing
    else:
        units = metric_units("end_to_end")
        metrics = dict(report.metrics)
        # ru_maxrss is in KiB on Linux.
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
