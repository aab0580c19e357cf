"""Command-line interface of the differential validation subsystem.

Fuzz N seeded scenarios across the full register-file architecture
matrix and compare every run against the architectural oracle::

    python -m repro.validate --seeds 25 --quick
    python -m repro.validate --seeds 50 --jobs 4 --json validate.json

Reproduce one failing seed from a report's ``repro`` line::

    python -m repro.validate --seed 17 --quick

Check that the detection machinery works (injects a deliberate
observation fault; the run MUST report a divergence)::

    python -m repro.validate --seed 1 --inject-fault monolithic-1c:40

Check the sampling engine's accuracy contract (full-run IPC must fall
inside every sampled run's reported confidence interval)::

    python -m repro.validate --sampled-accuracy

Exit codes: 0 all architectures agree, 1 divergence detected, 2 usage
or environment error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.validate.differential import validation_matrix
from repro.validate.faults import InjectedFault
from repro.validate.observer import DEFAULT_CHECKPOINT_INTERVAL
from repro.validate.runner import run_validation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of fuzzer seeds to run, 1..N (default: 10)")
    parser.add_argument("--seed", type=int, action="append", dest="seed_list",
                        default=None, metavar="S",
                        help="run exactly this seed (repeatable; overrides --seeds)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced instruction budgets (CI-sized run)")
    parser.add_argument("--filter", dest="name_filter", default=None,
                        help="only run architectures whose name contains this "
                             "substring (the oracle always runs)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the seed fan-out "
                             "(default: 1, serial)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write the full report as JSON to this path")
    parser.add_argument("--checkpoint-interval", type=int,
                        default=DEFAULT_CHECKPOINT_INTERVAL,
                        help="commits between rolling-checksum checkpoints "
                             f"(default: {DEFAULT_CHECKPOINT_INTERVAL})")
    parser.add_argument("--list", action="store_true",
                        help="list the architecture matrix and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-seed progress on stderr")
    parser.add_argument("--inject-fault", dest="inject_fault", default=None,
                        metavar="ARCHITECTURE:COMMIT_INDEX",
                        help="corrupt one architecture's observed commit stream "
                             "(self-test of the detector; the run must fail)")
    parser.add_argument("--no-trace-replay", action="store_true",
                        help="run each architecture with its own live frontend "
                             "instead of replaying one recorded decoded trace "
                             "(slower; results are bit-identical either way)")
    parser.add_argument("--sampled-accuracy", action="store_true",
                        help="instead of fuzzing, replay the architecture "
                             "matrix both exactly and sampled and fail if any "
                             "full-run IPC falls outside the sampled run's "
                             "confidence interval")
    parser.add_argument("--sample", default=None,
                        metavar="STRIDE:WINDOW[:WARMUP]",
                        help="sampling spec for --sampled-accuracy "
                             "(default: the pinned, verified spec)")
    parser.add_argument("--instructions", type=int, default=None,
                        help="trace length for --sampled-accuracy "
                             "(default: the pinned, verified length)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.sampled_accuracy:
        for flag, value in (("--sample", args.sample),
                            ("--instructions", args.instructions)):
            if value is not None:
                parser.error(f"{flag} only applies with --sampled-accuracy")

    if args.list:
        for name, factory in validation_matrix().items():
            print(f"{name:28s} {type(factory).__name__}")
        return 0

    def progress(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr, flush=True)

    if args.sampled_accuracy:
        from repro.sampling import parse_sampling
        from repro.validate.sampled import run_sampled_accuracy

        try:
            spec = (parse_sampling(args.sample)
                    if args.sample is not None else None)
            kwargs = {}
            if args.instructions is not None:
                kwargs["instructions"] = args.instructions
            report = run_sampled_accuracy(
                spec=spec, name_filter=args.name_filter,
                progress=progress, **kwargs,
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(report.render())
        if args.json_path:
            try:
                with open(args.json_path, "w", encoding="utf-8") as handle:
                    json.dump(report.to_payload(), handle, indent=2,
                              sort_keys=True)
                    handle.write("\n")
            except OSError as error:
                print(f"error: cannot write report: {error}", file=sys.stderr)
                return 2
            progress(f"wrote {args.json_path}")
        return 0 if report.ok else 1

    if args.seed_list:
        seeds = list(args.seed_list)
    else:
        if args.seeds <= 0:
            print("error: --seeds must be positive", file=sys.stderr)
            return 2
        seeds = list(range(1, args.seeds + 1))
    if args.checkpoint_interval <= 0:
        print("error: --checkpoint-interval must be positive", file=sys.stderr)
        return 2

    try:
        fault = (
            InjectedFault.parse(args.inject_fault)
            if args.inject_fault is not None else None
        )
        report = run_validation(
            seeds,
            quick=args.quick,
            name_filter=args.name_filter,
            jobs=args.jobs,
            checkpoint_interval=args.checkpoint_interval,
            fault=fault,
            progress=progress,
            use_trace_replay=not args.no_trace_replay,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(report.render())
    if args.json_path:
        try:
            path = report.save(args.json_path)
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 2
        progress(f"wrote {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
