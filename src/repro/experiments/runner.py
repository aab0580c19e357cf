"""Command-line driver for the experiment harness.

Examples
--------

Run a single figure with a reduced instruction budget::

    python -m repro.experiments.runner --experiment figure6 --instructions 5000

Run everything in parallel with a persistent result cache (the second
invocation only re-renders the reports — every simulation is a cache
hit)::

    python -m repro.experiments.runner --experiment all --jobs 8 \\
        --cache-dir .simcache --output results.txt

Machine-readable output::

    python -m repro.experiments.runner --experiment headline --format json
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from types import ModuleType
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments import (
    ablations,
    figure1,
    figure2,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9_table2,
    headline,
    value_reuse,
)
from repro.errors import ReproError
from repro.experiments.common import ExperimentResult, ExperimentSettings, SimulationCache
from repro.experiments.scheduler import SimulationPoint, SweepEngine
from repro.experiments.store import ResultStore
from repro.sampling.spec import parse_sampling
from repro.version import __version__

#: Every experiment module (each with ``plan`` and ``run``) by report
#: name, in the order the experiments appear in the paper.
EXPERIMENTS: Dict[str, ModuleType] = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "value_reuse": value_reuse,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9_table2,
    "headline": headline,
    "ablations": ablations,
}

REPORT_FORMATS = ("text", "json", "csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--experiment", default="headline",
                        choices=list(EXPERIMENTS) + ["all"],
                        help="which experiment to run (default: headline)")
    parser.add_argument("--instructions", type=int, default=8000,
                        help="committed instructions per benchmark per run")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict to these benchmarks (default: full SPEC95)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation fan-out "
                             "(default: 1, serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the persistent simulation cache; "
                             "results are reused across invocations")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir: neither read nor write the "
                             "persistent cache")
    parser.add_argument("--sample", default=None, metavar="STRIDE:WINDOW[:WARMUP]",
                        help="estimate every point by systematic interval "
                             "sampling instead of exact simulation: detailed "
                             "windows of WINDOW instructions every STRIDE "
                             "instructions, IPC reported as mean ± confidence "
                             "interval (see python -m repro.sampling --list; "
                             "default: exact)")
    parser.add_argument("--format", default="text", choices=REPORT_FORMATS,
                        help="report format (default: text)")
    parser.add_argument("--output", default=None,
                        help="write the report to this file as well as stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress scheduling progress on stderr")
    return parser


def plan_experiments(
    names: Sequence[str],
    settings: ExperimentSettings,
) -> List[SimulationPoint]:
    """Every simulation point the named experiments declare."""
    points: List[SimulationPoint] = []
    for name in names:
        points.extend(EXPERIMENTS[name].plan(settings))
    return points


def run_experiments(
    names: Sequence[str],
    settings: ExperimentSettings,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> list[ExperimentResult]:
    """Run the named experiments over one result store.

    The experiments' declared simulation points are deduplicated and
    executed up front through a :class:`SweepEngine` (across ``jobs``
    worker processes when ``jobs`` > 1); the experiment functions then
    only read the filled store, so a point a ``plan`` does not declare
    raises instead of being simulated.
    """
    engine = SweepEngine(store=store, jobs=jobs)
    engine.execute(plan_experiments(names, settings), progress=progress)
    cache = SimulationCache(settings, engine.store)
    results = []
    for name in names:
        started = time.time()
        result = EXPERIMENTS[name].run(settings, cache)
        result.data["elapsed_seconds"] = round(time.time() - started, 1)
        results.append(result)
    return results


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------


def render_text(results: Sequence[ExperimentResult]) -> str:
    return "\n".join(result.render() for result in results)


def render_json(results: Sequence[ExperimentResult],
                settings: ExperimentSettings,
                store: Optional[ResultStore] = None) -> str:
    payload = {
        "schema": 1,
        "version": __version__,
        "settings": {
            "instructions_per_benchmark": settings.instructions_per_benchmark,
            "warmup_instructions": settings.warmup_instructions,
            "benchmarks": (list(settings.benchmarks)
                           if settings.benchmarks is not None else None),
        },
        **(
            {"sampling": settings.sampling.to_payload()}
            if settings.sampling is not None
            else {}
        ),
        "results": [
            {
                "name": result.name,
                "title": result.title,
                "body": result.body,
                "data": result.data,
            }
            for result in results
        ],
    }
    if store is not None:
        # Cache accounting for the run: a warm rerun must show zero misses
        # and zero new results (CI asserts this determinism property).
        payload["cache"] = store.counters()
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


def _flatten_metrics(prefix: str, value, rows: List[tuple]) -> None:
    """Depth-first flattening of nested data into (path, value) rows."""
    if isinstance(value, Mapping):
        for key in value:
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten_metrics(path, value[key], rows)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten_metrics(f"{prefix}[{index}]", item, rows)
    elif isinstance(value, bool) or value is None:
        rows.append((prefix, "" if value is None else str(value).lower()))
    elif isinstance(value, (int, float, str)):
        rows.append((prefix, value))


def render_csv(results: Sequence[ExperimentResult]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(("experiment", "metric", "value"))
    for result in results:
        rows: List[tuple] = []
        _flatten_metrics("", result.data, rows)
        for path, value in rows:
            writer.writerow((result.name, path, value))
    return buffer.getvalue()


def render_report(results: Sequence[ExperimentResult],
                  settings: ExperimentSettings,
                  report_format: str,
                  store: Optional[ResultStore] = None) -> str:
    if report_format == "json":
        return render_json(results, settings, store=store)
    if report_format == "csv":
        return render_csv(results)
    return render_text(results)


# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = ExperimentSettings(
            instructions_per_benchmark=args.instructions,
            benchmarks=args.benchmarks,
            sampling=(parse_sampling(args.sample)
                      if args.sample is not None else None),
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    cache_dir = None if args.no_cache else args.cache_dir
    try:
        store = ResultStore(cache_dir=cache_dir)
    except OSError as error:
        print(f"error: cannot use cache directory {cache_dir!r}: {error}",
              file=sys.stderr)
        return 2

    def progress(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr, flush=True)

    try:
        results = run_experiments(names, settings, store=store,
                                  jobs=args.jobs, progress=progress)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = render_report(results, settings, args.format, store=store)
    print(report)
    progress(store.describe())
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
