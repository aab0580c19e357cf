"""Schema-versioned benchmark reports and report comparison.

A :class:`BenchReport` is what one ``python -m repro.bench`` invocation
produces: an environment fingerprint, a calibration measurement and one
:class:`ScenarioResult` per benchmark scenario.  Reports are written as
``BENCH_<n>.json`` files — the committed ones form the repository's
performance trajectory, and :func:`compare_reports` diffs two of them to
drive the CI perf gate.

Raw wall-clock rates are not comparable across machines, so every report
carries a *calibration score*: the throughput of a fixed pure-Python
loop measured right before the scenarios.  :func:`compare_reports`
normalizes each scenario rate by its report's calibration score by
default.  That does not cancel machine speed reliably: two
back-to-back ``--quick --repeats 2`` runs of one tree on a shared 2-CPU
container flagged 2 of 24 scenarios at about 27%, and their
calibration scores differed by 17%.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.version import __version__

#: Bump when the report layout changes; ``compare`` refuses mismatches.
SCHEMA_VERSION = 1

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


class BenchReportError(ReproError):
    """A benchmark report could not be read, written or compared."""


@dataclass
class ScenarioResult:
    """Measured outcome of one benchmark scenario."""

    name: str
    kind: str  # "simulation", "sweep", "service" or "component"
    wall_seconds: float  # best over ``repeats`` timed runs
    repeats: int
    #: Simulation scenarios: simulated cycles / committed instructions and
    #: the derived rates.  Component scenarios: operations per run.
    cycles: Optional[int] = None
    instructions: Optional[int] = None
    cycles_per_second: Optional[float] = None
    instructions_per_second: Optional[float] = None
    operations: Optional[int] = None
    operations_per_second: Optional[float] = None
    #: SHA-256 over the canonical stats dictionary — a cheap determinism
    #: guard: two reports of the same code must agree on every digest.
    stats_digest: Optional[str] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        """The scenario's primary throughput metric (higher is better)."""
        if self.cycles_per_second is not None:
            return self.cycles_per_second
        if self.operations_per_second is not None:
            return self.operations_per_second
        return 1.0 / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _scenario_from_dict(entry: object) -> ScenarioResult:
    """One report entry, with every field the comparison reads type-checked."""
    if not isinstance(entry, dict):
        raise BenchReportError(f"scenario entry {entry!r} is not an object")
    fields = ScenarioResult.__dataclass_fields__
    try:
        result = ScenarioResult(**{k: v for k, v in entry.items() if k in fields})
    except TypeError as exc:  # a required field is missing
        raise BenchReportError(f"scenario entry {entry.get('name')!r}: {exc}") from exc
    for key, value in vars(result).items():
        expected = (
            str if key in ("name", "kind", "stats_digest")
            else dict if key == "metadata"
            else (int, float)
        )
        if not isinstance(value, expected) and not (
            value is None and fields[key].default is None
        ):
            raise BenchReportError(
                f"scenario {result.name!r}: field {key!r} is "
                f"{type(value).__name__}"
            )
    return result


@dataclass
class BenchReport:
    """One benchmark run: environment, calibration, scenario results."""

    index: int
    created: str
    environment: Dict[str, object]
    calibration_score: float
    scenarios: List[ScenarioResult]
    quick: bool = False
    schema: int = SCHEMA_VERSION

    # ------------------------------------------------------------------

    def scenario(self, name: str) -> Optional[ScenarioResult]:
        for result in self.scenarios:
            if result.name == name:
                return result
        return None

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "index": self.index,
            "created": self.created,
            "quick": self.quick,
            "environment": self.environment,
            "calibration_score": self.calibration_score,
            "scenarios": [asdict(result) for result in self.scenarios],
        }

    @classmethod
    def from_dict(cls, payload: object) -> "BenchReport":
        """Parse a report; any missing or ill-typed field is a
        :class:`BenchReportError`."""
        if not isinstance(payload, dict):
            raise BenchReportError(
                f"a bench report is a JSON object, not {type(payload).__name__}"
            )
        if payload.get("schema") != SCHEMA_VERSION:
            raise BenchReportError(
                f"unsupported report schema {payload.get('schema')!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        entries = payload.get("scenarios", [])
        if not isinstance(entries, list):
            raise BenchReportError("report field 'scenarios' is not a list")
        try:
            return cls(
                index=int(payload["index"]),
                created=str(payload.get("created", "")),
                quick=bool(payload.get("quick", False)),
                environment=dict(payload.get("environment", {})),
                calibration_score=float(payload.get("calibration_score", 0.0)),
                scenarios=[_scenario_from_dict(entry) for entry in entries],
            )
        except KeyError as exc:
            raise BenchReportError(f"report has no field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise BenchReportError(f"malformed report: {exc}") from exc

    # ------------------------------------------------------------------

    def save(self, directory: str) -> str:
        """Write the report as ``BENCH_<index>.json`` under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"BENCH_{self.index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "BenchReport":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise BenchReportError(f"cannot read bench report {path!r}: {exc}") from exc
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# environment fingerprint and calibration
# ----------------------------------------------------------------------


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def environment_fingerprint() -> Dict[str, object]:
    """Everything needed to interpret the absolute numbers of a report."""
    return {
        "repro_version": __version__,
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_revision(),
        "argv": list(sys.argv),
    }


def calibration_score(duration: float = 0.1) -> float:
    """Interpreter-speed proxy: iterations/second of a fixed dict/arith loop.

    The loop exercises the operations the simulator leans on (dict
    access, integer arithmetic, attribute-free function calls) but no
    repository code.  It varies from run to run on a shared host (17%
    between two back-to-back runs), so normalizing by it narrows, but
    does not cancel, the effect of machine speed.
    """
    table = {i: i * 3 for i in range(512)}
    iterations = 0
    chunk = 20_000
    deadline = time.perf_counter() + duration
    while time.perf_counter() < deadline:
        acc = 0
        for i in range(chunk):
            acc += table[i & 511]
        iterations += chunk
    elapsed = duration + (time.perf_counter() - deadline)
    return iterations / elapsed


def peak_rss_kilobytes() -> Optional[int]:
    """Peak resident set size of this process, in kilobytes (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return usage // 1024
    return usage


def next_report_index(directories: Sequence[str]) -> int:
    """1 + the highest ``BENCH_<n>.json`` index found in ``directories``."""
    highest = 0
    for directory in directories:
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        for name in names:
            match = _BENCH_NAME.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
    return highest + 1


# ----------------------------------------------------------------------
# comparison (the CI perf gate)
# ----------------------------------------------------------------------


@dataclass
class ScenarioDelta:
    """Rate change of one scenario between two reports."""

    name: str
    baseline_rate: float
    current_rate: float
    change_fraction: float  # +0.25 = 25% faster, -0.25 = 25% slower
    normalized: bool

    def describe(self) -> str:
        direction = "faster" if self.change_fraction >= 0 else "slower"
        return (
            f"{self.name}: {self.baseline_rate:.4g} -> {self.current_rate:.4g} "
            f"({abs(self.change_fraction) * 100.0:.1f}% {direction}"
            + (", calibration-normalized)" if self.normalized else ")")
        )


def _scenario_budget(result: ScenarioResult) -> tuple:
    """The work a rate was measured over.  Rates over different work are
    not compared: a quick-budget simulation runs faster per cycle than a
    full-budget one from its shorter warm-up alone."""
    metadata = result.metadata
    return (result.operations, metadata.get("instructions"),
            metadata.get("warmup_instructions"))


@dataclass
class Comparison:
    """Outcome of diffing two reports."""

    deltas: List[ScenarioDelta]
    regressions: List[ScenarioDelta]
    missing_scenarios: List[str]
    new_scenarios: List[str]
    threshold: float
    #: Scenarios in both reports whose budgets differ: reported, not diffed.
    different_budgets: List[str] = field(default_factory=list)
    #: Same-budget scenarios whose stats digests differ: the two reports
    #: simulated different things, which fails the gate.
    digest_mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        # Scenarios present in the baseline but absent from the current
        # report fail the gate too: a run that silently lost coverage
        # (e.g. a --filter run) must not pass just because nothing
        # *comparable* regressed.
        return (not self.regressions and not self.missing_scenarios
                and not self.digest_mismatches)

    def render(self) -> str:
        lines = [
            f"perf gate: threshold {self.threshold * 100.0:.0f}%, "
            f"{len(self.deltas)} scenarios compared, "
            f"{len(self.regressions)} regression(s)"
        ]
        lines.extend("  " + delta.describe() for delta in self.deltas)
        if self.missing_scenarios:
            lines.append("  MISSING from current report (fails the gate): "
                         + ", ".join(self.missing_scenarios))
        if self.new_scenarios:
            lines.append("  new in current report: " + ", ".join(self.new_scenarios))
        if self.different_budgets:
            lines.append("  not compared, budgets differ: "
                         + ", ".join(self.different_budgets))
        if self.digest_mismatches:
            lines.append("  STATS DIGEST MISMATCH at equal budget (fails the gate): "
                         + ", ".join(self.digest_mismatches))
        verdict = "OK" if self.ok else (
            "DIGEST MISMATCH" if self.digest_mismatches
            else "REGRESSION" if self.regressions else "LOST COVERAGE"
        )
        lines.append(f"perf gate verdict: {verdict}")
        return "\n".join(lines)


def compare_reports(
    baseline: BenchReport,
    current: BenchReport,
    threshold: float = 0.25,
    normalize: bool = True,
) -> Comparison:
    """Diff two reports, flagging scenarios slower than ``threshold``.

    Rates are divided by each report's calibration score when
    ``normalize`` is true and both reports carry one, so a committed
    baseline from one machine gates a run on another.  Only like is
    compared with like: reports of different modes (``quick`` vs full)
    are refused, scenarios whose budgets differ are listed apart, and a
    same-budget pair whose stats digests differ fails the comparison.
    """
    if threshold <= 0:
        raise BenchReportError("comparison threshold must be positive")
    if baseline.quick != current.quick:
        raise BenchReportError(
            "cannot compare a quick-budget report with a full-budget one"
        )
    can_normalize = (
        normalize
        and baseline.calibration_score > 0
        and current.calibration_score > 0
    )
    deltas: List[ScenarioDelta] = []
    regressions: List[ScenarioDelta] = []
    different_budgets: List[str] = []
    digest_mismatches: List[str] = []
    current_names = {result.name for result in current.scenarios}
    for base_result in baseline.scenarios:
        cur_result = current.scenario(base_result.name)
        if cur_result is None:
            continue
        if _scenario_budget(base_result) != _scenario_budget(cur_result):
            different_budgets.append(base_result.name)
            continue
        if (base_result.stats_digest and cur_result.stats_digest
                and base_result.stats_digest != cur_result.stats_digest):
            digest_mismatches.append(base_result.name)
            continue
        base_rate = base_result.rate
        cur_rate = cur_result.rate
        if can_normalize:
            base_rate /= baseline.calibration_score
            cur_rate /= current.calibration_score
        if base_rate <= 0:
            continue
        delta = ScenarioDelta(
            name=base_result.name,
            baseline_rate=base_rate,
            current_rate=cur_rate,
            change_fraction=cur_rate / base_rate - 1.0,
            normalized=can_normalize,
        )
        deltas.append(delta)
        if delta.change_fraction < -threshold:
            regressions.append(delta)
    baseline_names = {result.name for result in baseline.scenarios}
    return Comparison(
        deltas=deltas,
        regressions=regressions,
        missing_scenarios=sorted(baseline_names - current_names),
        new_scenarios=sorted(current_names - baseline_names),
        threshold=threshold,
        different_budgets=different_budgets,
        digest_mismatches=digest_mismatches,
    )
