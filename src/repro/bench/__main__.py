"""Command-line interface of the performance subsystem.

Run the benchmark matrix and append the next report to the trajectory::

    python -m repro.bench --quick            # CI-sized budgets
    python -m repro.bench --output-dir out   # write out/BENCH_<n>.json

Diff two reports (exit code 1 when a scenario regressed by more than the
threshold or a same-budget scenario's stats digest differs — this is the
CI perf gate)::

    python -m repro.bench compare BENCH_1.json BENCH_2.json --threshold 0.25
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench.report import BenchReport, BenchReportError, compare_reports
from repro.errors import ReproError
from repro.bench.runner import BenchmarkRunner, run_and_save


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    parser.add_argument("--quick", action="store_true",
                        help="reduced instruction budgets (CI-sized run)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed runs per scenario; best is reported (default: 2)")
    parser.add_argument("--output-dir", default=".",
                        help="directory for the new BENCH_<n>.json (default: .)")
    parser.add_argument("--index", type=int, default=None,
                        help="force the report index instead of auto-numbering")
    parser.add_argument("--filter", dest="name_filter", default=None,
                        help="only run scenarios whose name contains this substring")
    parser.add_argument("--list", action="store_true",
                        help="list the (filtered) scenario matrix and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-scenario progress on stderr")

    compare = sub.add_parser(
        "compare", help="diff two reports and fail on regression")
    compare.add_argument("baseline", help="baseline BENCH_<n>.json")
    compare.add_argument("current", help="current BENCH_<n>.json")
    compare.add_argument("--threshold", type=float, default=0.25,
                         help="tolerated slowdown fraction (default: 0.25)")
    compare.add_argument("--raw", action="store_true",
                         help="compare raw rates instead of "
                              "calibration-normalized ones")
    return parser


def _run_compare(args: argparse.Namespace) -> int:
    try:
        baseline = BenchReport.load(args.baseline)
        current = BenchReport.load(args.current)
        comparison = compare_reports(
            baseline, current,
            threshold=args.threshold,
            normalize=not args.raw,
        )
    except BenchReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(comparison.render())
    return 0 if comparison.ok else 1


def _run_bench(args: argparse.Namespace) -> int:
    if args.repeats <= 0:
        print("error: --repeats must be positive", file=sys.stderr)
        return 2

    def progress(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr, flush=True)

    try:
        if args.list:
            runner = BenchmarkRunner(quick=args.quick, name_filter=args.name_filter)
            for scenario in runner.selected():
                print(scenario.describe())
            return 0
        report, path = run_and_save(
            output_dir=args.output_dir,
            quick=args.quick,
            repeats=args.repeats,
            index=args.index,
            name_filter=args.name_filter,
            progress=progress,
        )
    except BenchReportError as error:
        # Nothing matched --filter: no report is written.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot write report: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        # A scenario's own gate failed (an overhead bound, a digest
        # divergence between passes): no report is written.
        print(f"error: {error}", file=sys.stderr)
        return 1
    headline = next((r for r in report.scenarios
                     if r.metadata.get("headline")), None)
    if headline is not None:
        print(f"headline: {headline.cycles_per_second:,.0f} cycles/s "
              f"({headline.name})")
    print(f"wrote {path} ({len(report.scenarios)} scenarios, "
          f"calibration {report.calibration_score:,.0f} ops/s)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return _run_compare(args)
    return _run_bench(args)


if __name__ == "__main__":
    sys.exit(main())
