"""Prometheus text exposition: render → parse round-trip and grammar.

The parser is the same validating instrument the CI ``obs`` job runs
against a live ``/metrics?format=prometheus`` scrape, so a renderer bug
fails here before it fails in CI.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import (
    ExpositionError,
    parse,
    render,
    sanitize_name,
)


def _sample_map(samples):
    return {s.name: s for family in samples.values() for s in family}


class TestSanitize:
    def test_dotted_names_become_prometheus_names(self):
        assert sanitize_name("points.completed") == "repro_points_completed"
        assert sanitize_name("storage.append_seconds") == \
            "repro_storage_append_seconds"

    def test_already_prefixed_names_are_left_alone(self):
        assert sanitize_name("repro_x") == "repro_x"


class TestRoundTrip:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("points.completed", help="completed points").inc(7)
        registry.register_collector(lambda: {"queue.depth": 3})
        hist = registry.histogram("job.execute_seconds",
                                  buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.5, 0.5, 30.0):
            hist.observe(value)
        return registry

    def test_render_parses_and_preserves_values(self):
        text = render(self._registry(), replica="r1")
        samples = parse(text)  # raises ExpositionError on any violation
        by_name = _sample_map(samples)

        counter = by_name["repro_points_completed_total"]
        assert counter.value == 7
        assert ("replica", "r1") in counter.labels

        assert by_name["repro_queue_depth"].value == 3

        family = samples["repro_job_execute_seconds"]
        buckets = {
            dict(s.labels)["le"]: s.value
            for s in family if s.name.endswith("_bucket")
        }
        # Cumulative counts: ≤0.1 → 1, ≤1.0 → 3, ≤10.0 → 3, +Inf → 4.
        assert buckets["0.1"] == 1
        assert buckets["1"] == 3
        assert buckets["10"] == 3
        assert buckets["+Inf"] == 4
        count = next(s for s in family if s.name.endswith("_count"))
        assert count.value == 4
        total = next(s for s in family if s.name.endswith("_sum"))
        assert total.value == pytest.approx(31.05)

    def test_every_family_has_a_type_header(self):
        text = render(self._registry())
        assert "# TYPE repro_points_completed_total counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_job_execute_seconds histogram" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty_but_valid(self):
        assert parse(render(MetricsRegistry())) == {}


class TestParserValidation:
    def test_sample_without_type_header_is_rejected(self):
        with pytest.raises(ExpositionError):
            parse("repro_orphan 1\n")

    def test_malformed_labels_are_rejected(self):
        with pytest.raises(ExpositionError):
            parse('# TYPE repro_x gauge\nrepro_x{bad-label="1"} 1\n')

    def test_noncumulative_buckets_are_rejected(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_count 5\n"
        )
        with pytest.raises(ExpositionError):
            parse(text)

    def test_missing_inf_bucket_is_rejected(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            "repro_h_count 5\n"
        )
        with pytest.raises(ExpositionError):
            parse(text)

    def test_inf_bucket_must_equal_count(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_count 5\n"
        )
        with pytest.raises(ExpositionError):
            parse(text)

    def test_bad_value_is_rejected(self):
        with pytest.raises(ExpositionError):
            parse("# TYPE repro_x gauge\nrepro_x banana\n")

    def test_special_values_parse(self):
        samples = parse("# TYPE repro_x gauge\nrepro_x +Inf\n")
        assert samples["repro_x"][0].value == math.inf
