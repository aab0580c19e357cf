"""The chaos harness: invariant helpers and the matrix runner."""

from __future__ import annotations

from repro.chaos import seams
from repro.chaos.harness import (
    ScenarioResult,
    canonical_result_bytes,
    check_terminal_record,
    run_matrix,
    summarize,
)
from repro.chaos.scenarios import QUICK_SCENARIOS, SCENARIOS


def test_canonical_bytes_are_key_order_independent():
    assert canonical_result_bytes({"a": 1, "b": [2, 3]}) \
        == canonical_result_bytes({"b": [2, 3], "a": 1})


class TestCheckTerminalRecord:
    def test_completed_within_accounting_is_clean(self):
        result = ScenarioResult(name="t", seed=0)
        check_terminal_record(
            {"id": "j", "state": "completed",
             "counters": {"executed": 1, "unique": 2}}, result)
        assert result.ok

    def test_overexecution_is_a_violation(self):
        result = ScenarioResult(name="t", seed=0)
        check_terminal_record(
            {"id": "j", "state": "completed",
             "counters": {"executed": 3, "unique": 2}}, result)
        assert not result.ok
        assert "single-flight" in result.violations[0]

    def test_failure_without_cause_is_a_violation(self):
        result = ScenarioResult(name="t", seed=0)
        check_terminal_record(
            {"id": "j", "state": "failed", "error": {}}, result)
        assert not result.ok

    def test_unexpected_cause_is_a_violation(self):
        result = ScenarioResult(name="t", seed=0)
        check_terminal_record(
            {"id": "j", "state": "failed",
             "error": {"code": "execution_error"}},
            result, allowed_failures=["deadline_exceeded"])
        assert not result.ok

    def test_non_terminal_is_a_violation(self):
        result = ScenarioResult(name="t", seed=0)
        check_terminal_record({"id": "j", "state": "running"}, result)
        assert not result.ok


def test_registry_quick_subset_pins_the_contract_scenarios():
    assert set(QUICK_SCENARIOS) <= set(SCENARIOS)
    # The robustness contract requires these two in every CI run.
    assert "replica-sigkill" in QUICK_SCENARIOS
    assert "enospc" in QUICK_SCENARIOS


def test_run_matrix_executes_a_real_scenario_and_summarizes():
    results = run_matrix(["enospc"], seed=3, quick=True)
    assert len(results) == 1
    assert results[0].ok, results[0].violations
    assert results[0].faults_injected >= 1
    summary = summarize(results)
    assert summary["total"] == 1
    assert summary["failed"] == 0
    assert summary["violations"] == []
    assert seams.active is None  # the scenario unwound its injector


def test_crashing_scenario_is_reported_not_raised():
    from repro.chaos import scenarios as scenarios_mod

    def explode(result, seed, quick):
        raise RuntimeError("kaboom")

    scenarios_mod.SCENARIOS["__explode__"] = explode
    try:
        results = run_matrix(["__explode__"], seed=0)
    finally:
        del scenarios_mod.SCENARIOS["__explode__"]
    assert not results[0].ok
    assert "kaboom" in results[0].violations[0]
