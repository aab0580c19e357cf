"""Output checks: every simulated point against its recorded digest.

``digests.json`` (next to ``run.py``) maps each point id of
:mod:`benchlib.plans` to the SHA-256 of its ``SimulationStats.to_dict()``
in canonical JSON, plus one digest per service set-up plan result.  The
ids do not depend on the seed, so one table serves every seed.  A
mismatch — or a point with no recorded digest — is an
:class:`OutputMismatch`, which fails the run with a non-zero exit.

Regenerate the table only for a deliberate change of simulated
behaviour: ``python3 perfbench/record_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "digests.json"
)


class OutputMismatch(Exception):
    """An output differs from its recorded digest (or has none)."""


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def digest(payload) -> str:
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


class DigestBook:
    """Checks outputs against a digest table, or records a new table."""

    def __init__(self, table: Optional[Dict[str, str]] = None,
                 record: bool = False) -> None:
        self.table: Dict[str, str] = dict(table or {})
        self.record = record
        self.checked = 0

    @classmethod
    def load(cls, path: str = DIGESTS_PATH) -> "DigestBook":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle)["digests"])

    def check(self, output_id: str, payload) -> None:
        actual = digest(payload)
        if self.record:
            self.table[output_id] = actual
            return
        expected = self.table.get(output_id)
        if expected is None:
            raise OutputMismatch(f"no recorded digest for {output_id}")
        if actual != expected:
            raise OutputMismatch(
                f"{output_id}: output digest {actual[:16]}... differs from "
                f"the recorded {expected[:16]}..."
            )
        self.checked += 1
