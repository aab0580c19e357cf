"""Observability correctness: monotonic rate clock, a read-only /metrics.

The uptime feeding the points/min rate must come from a *monotonic*
clock (a wall-clock NTP step must not produce negative uptime or a
garbage rate), and reading ``/metrics`` must not write to the cache
tree: it renders this replica's registry, nothing more.
"""

from __future__ import annotations

import os
import time

from repro.service.app import ServiceApp


class TestMonotonicUptime:
    def _frozen_app(self):
        app = ServiceApp(cache_dir=None, jobs=1)  # never started: pure reads
        clock = {"now": 1000.0}
        app._monotonic = lambda: clock["now"]
        app._started_clock = clock["now"]
        return app, clock

    def test_uptime_follows_the_injected_monotonic_clock(self):
        app, clock = self._frozen_app()
        assert app.uptime_seconds() == 0.0
        clock["now"] += 90.0
        assert app.uptime_seconds() == 90.0
        assert app.health()["uptime_seconds"] == 90.0
        # Wall-clock start stays an ISO timestamp for humans.
        assert app.started_at.startswith("20")

    def test_points_per_minute_is_exact_under_a_frozen_clock(self):
        app, clock = self._frozen_app()
        app._point_counters["completed"].inc(10)
        clock["now"] += 120.0
        metrics = app.metrics()
        assert metrics["uptime_seconds"] == 120.0
        # The lifetime average rate (completed * 60 / uptime).
        assert metrics["points"]["per_minute_lifetime"] == 5.0
        # Zero uptime must not divide by zero.
        app._started_clock = clock["now"]
        assert app.metrics()["points"]["per_minute_lifetime"] == 0.0

    def test_per_minute_is_a_sliding_window_rate(self):
        app, clock = self._frozen_app()
        # The window was opened against the real clock at construction;
        # re-anchor it to the injected one.
        app._rate_window._opened = clock["now"]
        # 5 points observed "now": the window has been open 120 s, so the
        # rate reflects the full 60 s window, not the whole uptime.
        clock["now"] += 120.0
        for _ in range(5):
            app._rate_window.record(1)
        assert app.metrics()["points"]["per_minute"] == 5.0
        # 61 s later those points have left the window entirely.
        clock["now"] += 61.0
        assert app.metrics()["points"]["per_minute"] == 0.0


class TestNoReplicaStore:
    def test_metrics_writes_nothing_to_the_cache_dir(self, tmp_path):
        """``/metrics`` reads this replica's registry and stores nothing:
        no ``replicas/`` snapshot store, no storage append."""
        app = ServiceApp(cache_dir=str(tmp_path), jobs=1)
        app.start()
        try:
            job = app.submit({
                "figure": "figure6",
                "settings": {"instructions": 300,
                             "benchmarks": ["m88ksim", "swim"]},
            })
            deadline = time.monotonic() + 120.0
            while not app.get_job(job.id).terminal:
                assert time.monotonic() < deadline, "figure6 job did not finish"
                time.sleep(0.02)
            assert app.get_job(job.id).state == "completed"
            appends = app.telemetry.registry.histogram("storage.append_seconds")
            before = appends.count
            assert before > 0  # the cold job did write results and traces
            app.metrics()
            assert appends.count == before
        finally:
            app.stop()
        assert not os.path.exists(tmp_path / "replicas")
