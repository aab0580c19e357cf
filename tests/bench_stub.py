"""A throwaway git repository whose ``perfbench/run.py`` is a stub.

The stub answers at once from ``src/stub.json`` of the tree it runs in,
so a test of ``python -m repro.bench --base`` sets the base side's
numbers in a commit and the change side's in the working tree:

``{"<workload>": {"metrics": {"<metric>": [seed 1, seed 2, seed 3]},
"exit": 0, "correct": true, "failed": 0}}`` (seed 4 reads seed 1's
value, seed 5 seed 2's).

A workload the file does not name exits 1 with an error line, as
``perfbench/run.py`` exits non-zero on an unknown ``--workload``.  A
traced run reports one per-layer metric, ``trace_overhead``; an
untraced one also reports its own ``peak_rss_mb``, as perfbench does.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

STUB_RUN = '''\
import argparse, json, os, resource, sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag, required=True)
args = parser.parse_args()
with open(os.path.join(root, "src", "stub.json")) as handle:
    plan = json.load(handle)
if args.workload not in plan:
    sys.exit(f"error: unknown workload {args.workload}")
entry = plan[args.workload]
seed = int(args.seed)
if args.trace == "1":
    metrics = {"trace_overhead": {"value": 1.1, "unit": "ratio"}}
else:
    metrics = {name: {"value": values[(seed - 1) % len(values)], "unit": "x"}
               for name, values in entry["metrics"].items()}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
print(json.dumps({"workload": args.workload, "seed": seed}))
print(json.dumps({"correct": entry.get("correct", True), "attempted": 10,
                  "failed": entry.get("failed", 0), "metrics": metrics}))
sys.exit(entry.get("exit", 0))
'''

#: Two metrics, one per direction, as in the repository's BENCHMARK.json.
METRICS = [
    {"name": "sim_kips", "unit": "kinst/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                    *args], cwd=repo, check=True, capture_output=True)


def write_plan(repo: Path, plan: dict) -> None:
    (repo / "src" / "stub.json").write_text(json.dumps(plan))


def stub_repo(tmp_path: Path, base: dict, change: dict, workloads=("point-live",)) -> Path:
    """A repository whose HEAD runs ``base`` and whose working tree runs
    ``change`` (each a ``src/stub.json`` plan)."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 5,
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": METRICS,
        "per_layer": [{"name": "trace_overhead", "unit": "ratio", "better": "lower"}],
    }))
    write_plan(repo, base)
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    write_plan(repo, change)
    return repo


def steady(sim_kips=(60.0, 61.0, 59.0), latency=(10.0, 10.2, 9.9), **extra) -> dict:
    """One workload's plan entry."""
    return {"metrics": {"sim_kips": list(sim_kips), "latency_p50_ms": list(latency)},
            **extra}
