"""The bench harness behind ``python -m repro.bench --base REV``.

Two trees are built under one temporary directory, each holding a
``src/`` beside copies of the working tree's ``perfbench/`` and
``BENCHMARK.json``: ``base`` takes ``src/`` from REV, ``change`` from
the working tree.  Both sides thus run one harness, and only ``src/``
differs.

On every ``BENCHMARK.json`` workload, :data:`PAIRS` pairs of untraced
``perfbench/run.py`` runs (seeds 1 to :data:`PAIRS`) alternate which
side goes first, and one traced pair follows.  Each run is one
subprocess, so no side warms the other's process.  The untraced runs'
end-to-end metrics are judged by :func:`repro.bench.verdict.judge`; the
traced pair's per-layer metrics are recorded, not judged.  The overhead
gates of :mod:`repro.bench.gates` run in this process, on the working
tree's code.

The report, ``BENCH_<n>.json`` (schema 2), lists every failure: a run
that exits non-zero or reports ``"correct": false``, a ``regressed`` or
``missing`` metric, a higher failed-operation share on the change side,
or a failed gate.
"""

from __future__ import annotations

import compileall
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from datetime import datetime, timezone
from typing import Callable, Dict, Optional, Sequence

from repro.bench.gates import overhead_gates
from repro.bench.verdict import MISSING, REGRESSED, judge
from repro.errors import ReproError
from repro.version import __version__

#: Bump when the report layout changes.
SCHEMA_VERSION = 2
#: Untraced pairs per workload; pair ``k`` runs seed ``k``.  With three,
#: an A/A run of one tree read ``service-warm`` ``setup_s`` (not scaled
#: for host speed) 29% worse with a base spread of 17%: a false
#: regression.
PAIRS = 5
SIDES = ("base", "change")

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")
_IGNORE = shutil.ignore_patterns("__pycache__", "*.egg-info", ".perfbench-*")

#: Progress sink for one-line status messages.
ProgressCallback = Callable[[str], None]


class BenchError(ReproError):
    """The base revision, ``BENCHMARK.json`` or a tree cannot be read."""


def _git(root: str, *args: str) -> bytes:
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              timeout=120)
    except (OSError, subprocess.SubprocessError) as error:
        raise BenchError(f"git {args[0]}: {error}") from error
    if proc.returncode != 0:
        message = proc.stderr.decode("utf-8", "replace").strip()
        raise BenchError(f"git {' '.join(args)}: {message}")
    return proc.stdout


def load_spec(root: str) -> dict:
    """The working tree's ``BENCHMARK.json``."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        workloads = [workload["name"] for workload in spec["workloads"]]
        metrics = [(metric["name"], metric["better"], float(metric["bound"]))
                   for metric in spec["end_to_end"]]
        float(spec["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise BenchError(f"cannot read {path}: {error!r}") from error
    if not workloads or any(better not in ("lower", "higher") for _, better, _ in metrics):
        raise BenchError(f"{path}: no workload, or a metric neither lower nor higher better")
    return spec


def build_trees(root: str, base_sha: str, directory: str) -> Dict[str, str]:
    """The ``base`` and ``change`` trees under ``directory``, byte-compiled."""
    trees = {side: os.path.join(directory, side) for side in SIDES}
    for tree in trees.values():
        shutil.copytree(os.path.join(root, "perfbench"),
                        os.path.join(tree, "perfbench"), ignore=_IGNORE)
        shutil.copy2(os.path.join(root, "BENCHMARK.json"), tree)
    shutil.copytree(os.path.join(root, "src"), os.path.join(trees["change"], "src"),
                    ignore=_IGNORE)
    archive = _git(root, "archive", "--format=tar", base_sha, "src")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(trees["base"], filter="data")
        else:  # pragma: no cover - Python without extraction filters
            tar.extractall(trees["base"])
    for tree in trees.values():
        compileall.compile_dir(tree, quiet=1)
    return trees


def run_perfbench(tree: str, workload: str, seed: int, seconds: float,
                  trace: int) -> Dict[str, object]:
    """One ``perfbench/run.py`` subprocess in ``tree``, as a run record.

    ``ok`` is whether it exited 0 and printed a result line that says
    ``"correct": true``.
    """
    # Linux carries a process's peak RSS across exec, so a run started
    # from this process would report at least this process's peak (the
    # overhead gates' included) as its ``peak_rss_mb``.  A shell forks
    # the run from a small process instead.
    command = ["/bin/sh", "-c", '"$0" "$@"; exit $?', sys.executable,
               os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    record: Dict[str, object] = {"seed": seed, "trace": trace}
    started = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=max(600.0, 30 * seconds))
    except subprocess.TimeoutExpired:
        record.update(exit="timeout", ok=False, wall_s=round(time.perf_counter() - started, 2))
        return record
    record["wall_s"] = round(time.perf_counter() - started, 2)
    record["exit"] = proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        details = json.loads(lines[-2]) if len(lines) > 1 else {}
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        result, details, metrics = {}, {}, {}
    record.update(
        ok=proc.returncode == 0 and result.get("correct") is True,
        correct=result.get("correct"),
        attempted=result.get("attempted"),
        failed=result.get("failed"),
        metrics=metrics,
        details=details,
    )
    if proc.returncode != 0:
        record["stderr"] = proc.stderr.strip().splitlines()[-5:]
    return record


def _failed_share(runs: Sequence[dict]) -> Optional[float]:
    attempted = sum(run["attempted"] or 0 for run in runs)
    return sum(run["failed"] or 0 for run in runs) / attempted if attempted else None


def summarise(name: str, runs: Sequence[dict], spec: dict) -> tuple:
    """One workload's section of the report, and its failures."""
    untraced = {side: [run for run in runs if run["side"] == side
                       and not run["trace"] and run["ok"]] for side in SIDES}
    failures = [
        f"{name} {run['side']} seed {run['seed']}{' traced' if run['trace'] else ''}: "
        + ("correct is false" if run["exit"] == 0 else f"exit {run['exit']}")
        for run in runs if not run["ok"]
    ]
    verdicts, medians = {}, {side: {} for side in SIDES}
    for metric in spec["end_to_end"]:
        metric_name = metric["name"]
        values = {side: [run["metrics"][metric_name] for run in untraced[side]
                         if metric_name in run["metrics"]] for side in SIDES}
        for side in SIDES:
            if values[side]:
                medians[side][metric_name] = statistics.median(values[side])
        verdict = judge(values["base"], values["change"], metric["better"],
                        float(metric["bound"]))
        verdict.update(better=metric["better"], bound=metric["bound"])
        verdicts[metric_name] = verdict
        if verdict["status"] in (REGRESSED, MISSING):
            failures.append(f"{name} {metric_name}: {verdict['status']}")
    shares = {side: _failed_share(untraced[side]) for side in SIDES}
    if (shares["base"] is not None and shares["change"] is not None
            and shares["change"] > shares["base"]):
        failures.append(f"{name}: failed-operation share {shares['change']:.4f} "
                        f"above the base's {shares['base']:.4f}")
    section = {
        "verdicts": verdicts,
        "medians": medians,
        "failed_share": shares,
        "per_layer": {run["side"]: run["metrics"] for run in runs
                      if run["trace"] and run["ok"]},
        "runs": list(runs),
    }
    return section, failures


def run_gates() -> tuple:
    """Each overhead gate's outcome, and the failures among them."""
    outcomes, failures = {}, []
    for gate in overhead_gates():
        try:
            outcomes[gate.name] = {"ok": True, **gate.run()}
        except ReproError as error:
            outcomes[gate.name] = {"ok": False, "error": str(error)}
            failures.append(f"gate {gate.name}: {error}")
    return outcomes, failures


def environment_fingerprint() -> Dict[str, object]:
    """Everything needed to interpret the absolute numbers of a report."""
    return {
        "repro_version": __version__,
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def next_report_index(directories: Sequence[str]) -> int:
    """1 + the highest ``BENCH_<n>.json`` index found in ``directories``."""
    highest = 0
    for directory in directories:
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        for entry in names:
            match = _BENCH_NAME.match(entry)
            if match:
                highest = max(highest, int(match.group(1)))
    return highest + 1


def run_bench(base: str, output_dir: str,
              progress: Optional[ProgressCallback] = None) -> tuple:
    """Measure the working tree against ``base``; returns (report, path).

    Raises :class:`BenchError` before any run when ``base`` or
    ``BENCHMARK.json`` cannot be read.
    """
    say = progress or (lambda message: None)
    root = _git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    spec = load_spec(root)
    try:
        base_sha = _git(root, "rev-parse", "--verify", "--quiet",
                        f"{base}^{{commit}}").decode().strip()
    except BenchError as error:
        raise BenchError(f"--base {base!r} is not a commit of {root}") from error
    seconds = spec["run_seconds"]
    workloads, failures = {}, []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as directory:
        trees = build_trees(root, base_sha, directory)
        say(f"bench: {base} ({base_sha[:12]}) against the working tree, "
            f"{len(spec['workloads'])} workloads x {PAIRS + 1} pairs")
        gates, gate_failures = run_gates()
        for name, outcome in gates.items():
            say(f"gate {name}: " + (f"{outcome['overhead']}x" if outcome["ok"]
                                    else outcome["error"]))
        failures += gate_failures
        for workload in spec["workloads"]:
            name = workload["name"]
            runs = []
            # Pair k (from 0) runs seed k + 1; the last pair is traced.
            for pair in range(PAIRS + 1):
                trace = int(pair == PAIRS)
                seed = 1 if trace else pair + 1
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    run = {"side": side, **run_perfbench(trees[side], name, seed,
                                                         seconds, trace)}
                    runs.append(run)
                    say(f"{name} seed {seed}{' traced' if trace else ''} {side}: "
                        f"exit {run['exit']}, {run['wall_s']} s")
            workloads[name], workload_failures = summarise(name, runs, spec)
            failures += workload_failures
    change_sha = _git(root, "rev-parse", "HEAD").decode().strip()
    dirty = bool(_git(root, "status", "--porcelain", "--", "src").strip())
    index = next_report_index([output_dir, root])
    report = {
        "schema": SCHEMA_VERSION,
        "index": index,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "base": {"rev": base, "sha": base_sha},
        "change": {"sha": change_sha, "src_dirty": dirty},
        "environment": environment_fingerprint(),
        "run_seconds": seconds,
        "pairs": PAIRS,
        "ok": not failures,
        "failures": failures,
        "gates": gates,
        "workloads": workloads,
    }
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, f"BENCH_{index}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return report, path


def render(report: dict) -> str:
    """The verdict table of a report, one line per workload and metric."""
    lines = [f"base {report['base']['rev']} ({report['base']['sha'][:12]}) -> "
             f"working tree, {report['pairs']} pairs per workload"]
    for name, section in report["workloads"].items():
        for metric, verdict in section["verdicts"].items():
            if verdict["status"] == MISSING:
                lines.append(f"  {name:<13} {metric:<16} missing")
                continue
            lines.append(
                f"  {name:<13} {metric:<16} {verdict['status']:<10} "
                f"{verdict['base_median']:.4g} -> {verdict['change_median']:.4g} "
                f"(worse by {verdict['worse_by'] * 100:+.1f}%, bound "
                f"{verdict['bound'] * 100:.0f}%, base spread "
                f"{verdict['base_spread'] * 100:.1f}%)")
    for name, outcome in report["gates"].items():
        lines.append(f"  gate {name}: " + (
            f"{outcome['overhead']}x (bound {outcome['bound']}x)"
            if outcome["ok"] else "FAILED"))
    lines.extend(f"FAIL: {failure}" for failure in report["failures"])
    lines.append("bench verdict: " + ("OK" if report["ok"] else "FAIL"))
    return "\n".join(lines)
