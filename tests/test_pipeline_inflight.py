"""Invariants of the pipeline's single in-flight record.

One ``IssueQueueEntry`` per instruction lives in the issue window until
it is selected and in the reorder buffer until it commits; a completion
carries that same object.  These tests watch a running processor cycle
by cycle and check the bookkeeping that design relies on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.common import (
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor, simulate
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(FIXTURE_DIR))

from make_golden_fixtures import INSTRUCTIONS, SCENARIOS  # noqa: E402

ARCHITECTURES = {
    "mono-2c": SingleBankedFactory(latency=2, bypass_levels=1),
    "banked": OneLevelBankedFactory(num_banks=4, read_ports_per_bank=1,
                                    write_ports_per_bank=1),
    # Tracks the consumer index and exercises fills and pinning.
    "rfc": RegisterFileCacheFactory(caching="ready", fetch="prefetch-first-pair",
                                    upper_read_ports=2, buses=1, upper_capacity=4),
}


class _CheckedProcessor(Processor):
    """Checks the in-flight invariants after every issue stage."""

    cycles_checked = 0

    def _issue_stage(self, cycle: int) -> None:
        super()._issue_stage(cycle)
        window = self.window
        rob_ids = {id(entry) for entry in self.rob}
        for waiting in window.waiters.values():
            assert not any(entry.issued for entry in waiting), (
                f"issued entry left in a waiter list at cycle {cycle}")
        for entry in window.entries.values():
            assert not entry.issued and not entry.completed
            assert id(entry) in rob_ids, "window entry missing from the ROB"
        for bucket in self._completions.values():
            for entry in bucket:
                assert entry.issued and not entry.completed
                assert id(entry) in rob_ids, "completion not in the ROB"
        self.cycles_checked += 1


@pytest.mark.parametrize("architecture", sorted(ARCHITECTURES))
@pytest.mark.parametrize("profile", ["gcc", "fpppp"])
def test_window_rob_and_completions_share_one_record(architecture, profile):
    stream = SyntheticWorkload(get_profile(profile)).instructions(1400)
    processor = _CheckedProcessor(stream, ARCHITECTURES[architecture],
                                  ProcessorConfig(max_instructions=1000))
    stats = processor.run()
    assert stats.committed_instructions == 1000
    assert processor.cycles_checked > 0


@pytest.mark.parametrize("commit_width", [3, 5, 8])
def test_budget_not_a_multiple_of_commit_width_stops_exactly(commit_width):
    budget = 1001
    assert budget % commit_width
    stream = SyntheticWorkload(get_profile("swim")).instructions(1500)
    stats = simulate(stream, ARCHITECTURES["mono-2c"],
                     ProcessorConfig(max_instructions=budget, commit_width=commit_width))
    assert stats.committed_instructions == budget


def test_golden_budget_is_not_a_multiple_of_commit_width():
    """The golden fixtures stop mid commit group.

    ``tests/test_golden_stats.py`` already checks that every fixture
    still matches bit for bit; this pins down that those runs end part
    way through a commit group, at exactly the budget.
    """
    assert INSTRUCTIONS % ProcessorConfig().commit_width
    for scenario, (_, _, overrides) in SCENARIOS.items():
        assert "commit_width" not in overrides and "max_instructions" not in overrides
        golden = json.loads((FIXTURE_DIR / f"golden_{scenario}.json").read_text())
        assert golden["committed_instructions"] == INSTRUCTIONS, scenario
