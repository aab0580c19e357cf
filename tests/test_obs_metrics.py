"""Histogram bucket math, merge exactness, and the sliding rate window.

The fleet view is built by *merging* per-replica histogram snapshots,
so the whole design rests on one property: because every histogram of a
given name shares fixed bucket bounds, a merge of shard histograms is
**exactly** the histogram of the concatenated samples.  That property
is hypothesis-tested here; the rest pins the bucket edge semantics
(``le`` is inclusive), the payload validation, and the
:class:`RateWindow` elapsed-clamp maths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RateWindow,
)


class TestCounterGauge:
    def test_counter_only_goes_up(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.int_value == 4  # rounded, not truncated
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4.0


class TestHistogramBuckets:
    def test_le_is_inclusive(self):
        # A value exactly on a bound belongs to that bound's bucket
        # (Prometheus ``le`` semantics).
        hist = Histogram("h", buckets=[1.0, 2.0, 4.0])
        hist.observe(2.0)
        payload = hist.to_payload()
        assert payload["counts"] == [0, 1, 0, 0]

    def test_overflow_lands_in_the_inf_bucket(self):
        hist = Histogram("h", buckets=[1.0, 2.0])
        hist.observe(100.0)
        assert hist.to_payload()["counts"] == [0, 0, 1]

    def test_default_buckets_straddle_service_timescales(self):
        assert DEFAULT_BUCKETS[0] == 0.001
        assert DEFAULT_BUCKETS[-1] > 60.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bounds_must_be_distinct_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[1.0, 1.0])

    def test_quantile_interpolates_and_clamps(self):
        hist = Histogram("h", buckets=[1.0, 2.0, 4.0])
        assert hist.quantile(0.5) == 0.0  # empty
        for value in (0.5, 1.5, 3.0, 99.0):
            hist.observe(value)
        # p100 lives in the +Inf bucket: clamped to the top bound.
        assert hist.quantile(1.0) == 4.0
        assert 0.0 < hist.quantile(0.25) <= 1.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_merge_rejects_mismatched_bounds(self):
        ours = Histogram("h", buckets=[1.0, 2.0])
        theirs = Histogram("h", buckets=[1.0, 3.0])
        with pytest.raises(ValueError):
            ours.merge(theirs)
        with pytest.raises(ValueError):
            ours.merge_payload({"bounds": [1.0, 2.0], "counts": [1, 2]})


class TestMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        shards=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=300.0,
                          allow_nan=False, allow_infinity=False),
                max_size=40,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_merged_shards_equal_concatenated_samples(self, shards):
        """merge(shard histograms) == histogram(concat(samples))."""
        merged = Histogram("h")
        for samples in shards:
            shard = Histogram("h")
            for value in samples:
                shard.observe(value)
            merged.merge_payload(shard.to_payload())

        direct = Histogram("h")
        for samples in shards:
            for value in samples:
                direct.observe(value)

        merged_payload = merged.to_payload()
        direct_payload = direct.to_payload()
        assert merged_payload["counts"] == direct_payload["counts"]
        assert merged_payload["count"] == direct_payload["count"]
        # Sums add in a different order: equal up to float associativity.
        assert merged_payload["sum"] == pytest.approx(
            direct_payload["sum"], abs=1e-9, rel=1e-12
        )


class TestRegistry:
    def test_instruments_are_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_bucket_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=[1.0, 2.0])
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=[1.0, 4.0])

    def test_merge_histogram_payloads_counts_rejects(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=[1.0, 2.0]).observe(0.5)
        target = MetricsRegistry()
        errors = target.merge_histogram_payloads(
            list(source.histogram_payloads().items())
            + [("bad", {"bounds": "garbage"})],
            into=target,
        )
        assert errors == 1
        assert target.histogram("h", buckets=[1.0, 2.0]).count == 1


class TestRateWindow:
    def _window(self, now=1000.0):
        clock = {"now": now}
        window = RateWindow(window_s=60.0, clock=lambda: clock["now"])
        return window, clock

    def test_rate_over_a_full_window(self):
        window, clock = self._window()
        clock["now"] += 120.0  # window long since open
        for _ in range(6):
            window.record(1)
        assert window.per_minute() == 6.0

    def test_young_window_scales_by_elapsed_not_sixty(self):
        # A replica 10 s old that did 5 points reports its 10 s rate
        # (30/min), not a 60 s dilution (5/min).
        window, clock = self._window()
        clock["now"] += 10.0
        window.record(5)
        assert window.per_minute() == 30.0

    def test_old_samples_fall_out(self):
        window, clock = self._window()
        clock["now"] += 120.0
        window.record(4)
        clock["now"] += 61.0
        assert window.per_minute() == 0.0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            RateWindow(window_s=0.0)
