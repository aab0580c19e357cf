"""Command-line interface of the bench harness.

Measure the working tree against a base revision on every
``BENCHMARK.json`` workload, and write the next ``BENCH_<n>.json``::

    python -m repro.bench --base origin/main
    python -m repro.bench --base HEAD~1 --output-dir bench-out

Run it from inside the repository.  Exit status: 0 when nothing
failed, 1 on a regressed or missing metric, a failed or incorrect run,
a higher failed-operation share or a failed overhead gate, and 2 when
the base revision or ``BENCHMARK.json`` cannot be read.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench.runner import BenchError, render, run_bench


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--base", required=True,
                        help="the git revision whose src/ the working tree's is "
                             "measured against (a PR's base, or the previous commit)")
    parser.add_argument("--output-dir", default=".",
                        help="directory for the new BENCH_<n>.json (default: .)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    def progress(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    try:
        report, path = run_bench(args.base, args.output_dir, progress)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot write report: {error}", file=sys.stderr)
        return 2
    print(render(report))
    print(f"wrote {path}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
