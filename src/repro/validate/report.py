"""Validation outcomes and schema-versioned JSON reports.

One ``python -m repro.validate`` invocation produces a
:class:`ValidationReport` holding one :class:`ScenarioValidation` per
fuzzed seed, each with the oracle summary, one
:class:`ArchitectureOutcome` per register-file architecture and any
:class:`Divergence` found.  Every divergence carries a minimized
repro: the seed, the scenario descriptor (config point, program text,
workload seed) and the first divergent commit index.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.errors import ValidationError
from repro.version import __version__

#: Bump when the report layout changes; loading refuses mismatches.
SCHEMA_VERSION = 1


@dataclass
class Divergence:
    """One detected disagreement between an architecture and the oracle."""

    architecture: str
    #: "commit_count", "commit_stream", "architectural_state" or
    #: "simulation_error".
    kind: str
    detail: str
    first_divergent_commit: Optional[int] = None
    expected_record: Optional[str] = None
    observed_record: Optional[str] = None
    #: Command line reproducing the failing scenario.
    repro: str = ""

    def describe(self) -> str:
        where = (
            f" at commit {self.first_divergent_commit}"
            if self.first_divergent_commit is not None
            else ""
        )
        lines = [f"{self.architecture}: {self.kind}{where} — {self.detail}"]
        if self.expected_record is not None:
            lines.append(f"  oracle   : {self.expected_record}")
        if self.observed_record is not None:
            lines.append(f"  observed : {self.observed_record}")
        if self.repro:
            lines.append(f"  repro    : {self.repro}")
        return "\n".join(lines)


@dataclass
class ArchitectureOutcome:
    """Commit-stream summary of one architecture on one scenario."""

    architecture: str
    count: int = 0
    digest: str = ""
    state: Dict[str, int] = field(default_factory=dict)
    checkpoints: List[list] = field(default_factory=list)
    ipc: float = 0.0
    cycles: int = 0
    error: Optional[str] = None


@dataclass
class ScenarioValidation:
    """The differential result of one scenario (one fuzzer seed)."""

    scenario: Dict[str, object]
    oracle: Dict[str, object]
    outcomes: List[ArchitectureOutcome] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "oracle": self.oracle,
            "outcomes": [asdict(outcome) for outcome in self.outcomes],
            "divergences": [asdict(divergence) for divergence in self.divergences],
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioValidation":
        return cls(
            scenario=dict(payload.get("scenario", {})),
            oracle=dict(payload.get("oracle", {})),
            outcomes=[
                ArchitectureOutcome(**_known_fields(ArchitectureOutcome, entry))
                for entry in payload.get("outcomes", [])
            ],
            divergences=[
                Divergence(**_known_fields(Divergence, entry))
                for entry in payload.get("divergences", [])
            ],
        )


def _known_fields(cls, payload: dict) -> dict:
    known = set(cls.__dataclass_fields__)
    return {key: value for key, value in payload.items() if key in known}


@dataclass
class ValidationReport:
    """One validation run: scenarios, divergences, summary."""

    created: str
    quick: bool
    seeds: List[int]
    architectures: List[str]
    scenarios: List[ScenarioValidation] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        return all(scenario.ok for scenario in self.scenarios)

    @property
    def divergence_count(self) -> int:
        return sum(len(scenario.divergences) for scenario in self.scenarios)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "version": __version__,
            "created": self.created,
            "quick": self.quick,
            "seeds": list(self.seeds),
            "architectures": list(self.architectures),
            "ok": self.ok,
            "divergence_count": self.divergence_count,
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ValidationReport":
        if payload.get("schema") != SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported validation report schema {payload.get('schema')!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        return cls(
            created=str(payload.get("created", "")),
            quick=bool(payload.get("quick", False)),
            seeds=[int(seed) for seed in payload.get("seeds", [])],
            architectures=[str(name) for name in payload.get("architectures", [])],
            scenarios=[
                ScenarioValidation.from_dict(entry)
                for entry in payload.get("scenarios", [])
            ],
        )

    def save(self, path: str) -> str:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "ValidationReport":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValidationError(
                f"cannot read validation report {path!r}: {exc}"
            ) from exc
        return cls.from_dict(payload)

    # ------------------------------------------------------------------

    def render(self) -> str:
        lines = [
            f"differential validation: {len(self.scenarios)} scenario(s), "
            f"{len(self.architectures)} architectures + oracle, "
            f"{self.divergence_count} divergence(s)"
        ]
        for scenario in self.scenarios:
            descriptor = scenario.scenario
            committed = scenario.oracle.get("count", "?")
            label = (
                f"seed {descriptor.get('seed', '?')}: "
                f"{descriptor.get('source', '?')}/{descriptor.get('benchmark', '?')} "
                f"({committed} commits)"
            )
            if scenario.ok:
                lines.append(f"  ok   {label}")
            else:
                lines.append(f"  FAIL {label}")
                for divergence in scenario.divergences:
                    lines.extend(
                        "       " + line
                        for line in divergence.describe().splitlines()
                    )
        lines.append(f"verdict: {'OK' if self.ok else 'DIVERGENT'}")
        return "\n".join(lines)
