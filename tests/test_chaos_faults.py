"""Unit tests for the chaos fault model and the injectable seams."""

from __future__ import annotations

import errno

import pytest

from repro.chaos import seams
from repro.chaos.faults import (
    ADVISORY_ACTIONS,
    RAISING_ACTIONS,
    ChaosFault,
    Fault,
    FaultInjector,
)


@pytest.fixture(autouse=True)
def clean_seams():
    seams.uninstall()
    yield
    seams.uninstall()


class TestFaultValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            Fault(seam="storage.append", action="lightning")

    def test_at_must_be_positive(self):
        with pytest.raises(ValueError):
            Fault(seam="storage.append", action="enospc", at=0)

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            Fault(seam="storage.append", action="enospc", count=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Fault(seam="engine.point", action="delay", delay_s=-1.0)

    def test_action_families_are_disjoint(self):
        assert not set(RAISING_ACTIONS) & set(ADVISORY_ACTIONS)


class TestFaultInjector:
    def test_enospc_raises_oserror_with_errno(self):
        injector = FaultInjector([
            Fault(seam="storage.append", action="enospc"),
        ])
        with pytest.raises(OSError) as caught:
            injector.fire("storage.append")
        assert caught.value.errno == errno.ENOSPC

    def test_crash_raises_chaos_fault(self):
        injector = FaultInjector([
            Fault(seam="engine.point", action="crash", message="boom"),
        ])
        with pytest.raises(ChaosFault, match="boom"):
            injector.fire("engine.point")

    def test_drop_and_reset_are_returned_not_raised(self):
        injector = FaultInjector([
            Fault(seam="http.response", action="drop", at=1),
            Fault(seam="http.response", action="reset", at=2),
        ])
        assert injector.fire("http.response") == "drop"
        assert injector.fire("http.response") == "reset"
        assert injector.fire("http.response") is None

    def test_at_window_is_one_based(self):
        injector = FaultInjector([
            Fault(seam="storage.append", action="enospc", at=3),
        ])
        injector.fire("storage.append")
        injector.fire("storage.append")
        with pytest.raises(OSError):
            injector.fire("storage.append")
        # count=1 by default: the window has passed.
        injector.fire("storage.append")

    def test_count_none_fires_forever(self):
        injector = FaultInjector([
            Fault(seam="storage.append", action="enospc", at=2, count=None),
        ])
        injector.fire("storage.append")
        for _ in range(5):
            with pytest.raises(OSError):
                injector.fire("storage.append")

    def test_match_filter_counts_only_matching_calls(self):
        injector = FaultInjector([
            Fault(seam="jobs.save", action="enospc", at=2,
                  match={"state": "running"}),
        ])
        # Non-matching calls don't advance the fault's window.
        injector.fire("jobs.save", state="queued")
        injector.fire("jobs.save", state="running")  # match #1
        injector.fire("jobs.save", state="queued")
        with pytest.raises(OSError):
            injector.fire("jobs.save", state="running")  # match #2

    def test_calls_counted_per_seam(self):
        injector = FaultInjector([])
        injector.fire("storage.append")
        injector.fire("storage.append")
        injector.fire("engine.point")
        assert injector.calls("storage.append") == 2
        assert injector.calls("engine.point") == 1
        assert injector.calls("http.response") == 0

    def test_log_records_fired_faults(self):
        injector = FaultInjector([
            Fault(seam="http.response", action="drop"),
        ])
        injector.fire("http.response")
        log = injector.log()
        assert len(log) == 1
        assert log[0]["seam"] == "http.response"
        assert log[0]["action"] == "drop"


class TestSeams:
    def test_disabled_by_default(self):
        assert seams.active is None
        assert not seams.installed()

    def test_install_uninstall_roundtrip(self):
        injector = FaultInjector([])
        seams.install(injector)
        assert seams.installed()
        assert seams.active is injector
        seams.uninstall()
        assert seams.active is None

    def test_double_install_of_different_injector_rejected(self):
        seams.install(FaultInjector([]))
        with pytest.raises(RuntimeError):
            seams.install(FaultInjector([]))

    def test_reinstalling_the_same_injector_is_idempotent(self):
        injector = FaultInjector([])
        seams.install(injector)
        seams.install(injector)
        assert seams.active is injector

    def test_uninstall_when_nothing_installed_is_a_noop(self):
        seams.uninstall()
        seams.uninstall()
        assert seams.active is None
