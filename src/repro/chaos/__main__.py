"""``python -m repro.chaos`` — run the deterministic chaos matrix.

Boots real service machinery, injects seeded faults through the chaos
seams, and asserts the global robustness invariants (no lost completed
job, single-flight accounting respected, fault-free runs byte-identical
to plain runs, every failure carries a structured cause, no hangs).

Exit status is 0 only when **every** scenario ran with **zero**
invariant violations — this is the contract the CI ``chaos`` job pins.

Examples::

    python -m repro.chaos --list
    python -m repro.chaos --seed 0 --quick
    python -m repro.chaos --seed 7 --scenarios enospc,replica-sigkill
    python -m repro.chaos --quick --json chaos-report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.chaos.harness import run_matrix, summarize
from repro.chaos.scenarios import QUICK_SCENARIOS, SCENARIOS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic fault-injection matrix for the sweep "
                    "service: seeded faults against a live in-process "
                    "fleet, checked against the robustness invariants.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every injected fault (default: 0)")
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated scenario names to run "
                             "(default: all, or the quick subset with "
                             "--quick)")
    parser.add_argument("--quick", action="store_true",
                        help="run the CI subset with smaller workloads "
                             "(still covers SIGKILL and ENOSPC)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write the machine-readable summary to "
                             "this file")
    parser.add_argument("--list", action="store_true",
                        help="list scenario names and exit")
    return parser


def _select(args) -> List[str]:
    if args.scenarios:
        names = [name.strip() for name in args.scenarios.split(",")
                 if name.strip()]
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            raise SystemExit(
                f"unknown scenario(s): {', '.join(unknown)} "
                f"(see --list)"
            )
        return names
    if args.quick:
        return list(QUICK_SCENARIOS)
    return list(SCENARIOS)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        quick = set(QUICK_SCENARIOS)
        for name, func in SCENARIOS.items():
            doc = (func.__doc__ or "").strip().splitlines()[0]
            marker = "*" if name in quick else " "
            print(f"  {marker} {name:<20} {doc}")
        print("\n  (* = in the --quick subset)")
        return 0

    names = _select(args)
    print(f"chaos: {len(names)} scenario(s), seed {args.seed}"
          f"{' (quick)' if args.quick else ''}")
    results = run_matrix(names, seed=args.seed, quick=args.quick,
                         progress=print)
    summary = summarize(results)

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"chaos: wrote {args.json_path}")

    failed = summary["failed"]
    total = summary["total"]
    if failed:
        print(f"\nchaos: {failed}/{total} scenario(s) VIOLATED invariants:")
        for line in summary["violations"]:
            print(f"  - {line}")
        return 1
    print(f"\nchaos: all {total} scenario(s) passed with zero invariant "
          f"violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
