"""Event log rotation/resume, the merged reader, and the SSE ring.

The on-disk log is the lossless record (bounded by rotation), the
in-memory bus is the live feed; both identify events by the per-writer
``seq``.  These tests pin the rotation bound, the cross-restart seq
resume (SSE cursors must not rewind), torn-tail tolerance in the
reader, and the ``since``-cursor semantics of :class:`EventBus`.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

import pytest

from repro.obs.events import (
    EVENT_ENCODER,
    EVENT_SCHEMA_VERSION,
    EventBus,
    EventLog,
    read_events,
    span_pairs,
    unfinished_spans,
)
from repro.service import jobs
from repro.service.server import json_body

#: Holds a value only ``default=str`` can encode, and unsorted keys.
_PAYLOAD = {"z": 1, "a": [1.5, "é", None, True],
            "at": datetime(2020, 1, 2, tzinfo=timezone.utc), "m": {"y": {}, "b": 2}}


class TestSharedEncoders:
    """The module-level encoders write the bytes ``json.dumps`` does."""

    def test_event_lines(self, tmp_path):
        assert EVENT_ENCODER.encode(_PAYLOAD) == json.dumps(
            _PAYLOAD, separators=(",", ":"), default=str)
        log = EventLog(str(tmp_path), source="svc", clock=lambda: 5.0)
        record = log.append(dict(_PAYLOAD))
        log.close()
        (name,) = [n for n in os.listdir(tmp_path) if n.endswith(".jsonl")]
        with open(tmp_path / name, encoding="utf-8") as handle:
            line = handle.read()
        assert line == json.dumps(record, separators=(",", ":"), default=str) + "\n"

    def test_response_bodies(self):
        assert json_body(_PAYLOAD) == json.dumps(_PAYLOAD, sort_keys=True, default=str) + "\n"

    def test_job_records(self):
        assert jobs._RECORD_ENCODER.encode(_PAYLOAD) == json.dumps(_PAYLOAD, default=str)


class TestEventLog:
    def test_events_are_stamped_and_sequenced(self, tmp_path):
        log = EventLog(str(tmp_path), source="svc")
        first = log.append({"kind": "a"})
        second = log.append({"kind": "b"})
        assert first["schema"] == EVENT_SCHEMA_VERSION
        assert first["source"] == "svc"
        assert (first["seq"], second["seq"]) == (1, 2)

    def test_rotation_bounds_the_series(self, tmp_path):
        log = EventLog(str(tmp_path), source="svc",
                       max_bytes=200, max_files=3)
        for index in range(200):
            log.append({"kind": "tick", "index": index})
        files = [n for n in os.listdir(tmp_path) if n.endswith(".jsonl")]
        assert 1 <= len(files) <= 3
        # The survivors are the *newest* files of the series.
        indices = sorted(int(n.split("-")[-1].split(".")[0]) for n in files)
        assert indices == sorted(indices)[-len(indices):]
        # Events in the surviving files are the newest events.
        events = read_events(str(tmp_path))
        assert events[-1]["index"] == 199

    def test_seq_resumes_across_restart(self, tmp_path):
        log = EventLog(str(tmp_path), source="svc")
        log.append({"kind": "a"})
        log.append({"kind": "b"})
        log.close()
        reopened = EventLog(str(tmp_path), source="svc")
        third = reopened.append({"kind": "c"})
        assert third["seq"] == 3  # cursor never rewinds

    def test_write_errors_are_absorbed(self, tmp_path):
        # Writer whose file path collides with a directory: the append
        # fails, nothing raises — telemetry must never take the service
        # down.
        log = EventLog(str(tmp_path), source="svc")
        (tmp_path / "svc-0001.jsonl").mkdir()
        assert log.append({"kind": "a"}) is None
        assert log.write_errors >= 1

    def test_rejects_nonpositive_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(str(tmp_path), source="svc", max_bytes=0)
        with pytest.raises(ValueError):
            EventLog(str(tmp_path), source="svc", max_files=0)


class TestReadEvents:
    def test_merges_writers_and_skips_garbage(self, tmp_path):
        clock = {"now": 100.0}
        a = EventLog(str(tmp_path), source="a", clock=lambda: clock["now"])
        b = EventLog(str(tmp_path), source="b", clock=lambda: clock["now"])
        a.append({"kind": "one"})
        clock["now"] = 101.0
        b.append({"kind": "two"})
        clock["now"] = 102.0
        a.append({"kind": "three"})
        # A torn tail and a foreign-schema line must both be skipped.
        with open(tmp_path / "a-0001.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"kind": "torn...\n')
            handle.write('{"schema": 999, "kind": "foreign"}\n')
        events = read_events(str(tmp_path))
        assert [e["kind"] for e in events] == ["one", "two", "three"]

    def test_missing_directory_is_empty_not_fatal(self, tmp_path):
        assert read_events(str(tmp_path / "absent")) == []


class TestEventBus:
    def test_since_cursor(self):
        bus = EventBus()
        for seq in (1, 2, 3):
            bus.publish({"seq": seq})
        assert [e["seq"] for e in bus.since(0)] == [1, 2, 3]
        assert [e["seq"] for e in bus.since(2)] == [3]
        assert bus.since(3) == []
        assert bus.last_seq == 3

    def test_overflow_resumes_from_oldest_buffered(self):
        bus = EventBus(capacity=3)
        for seq in range(1, 11):
            bus.publish({"seq": seq})
        # A subscriber far behind gets what the ring still holds.
        assert [e["seq"] for e in bus.since(0)] == [8, 9, 10]

    def test_wait_returns_immediately_when_newer_exists(self):
        bus = EventBus()
        bus.publish({"seq": 1})
        assert [e["seq"] for e in bus.wait(0, timeout=5.0)] == [1]

    def test_wait_times_out_empty(self):
        bus = EventBus()
        assert bus.wait(0, timeout=0.05) == []


class TestSpanAccounting:
    def test_unfinished_spans(self):
        events = [
            {"kind": "span_start", "span": "a", "span_id": "s1"},
            {"kind": "span_end", "span": "a", "span_id": "s1"},
            {"kind": "span_start", "span": "b", "span_id": "s2"},
            {"kind": "job_phase", "phase": "queued"},
        ]
        starts, ends = span_pairs(events)
        assert set(starts) == {"s1", "s2"}
        assert set(ends) == {"s1"}
        dangling = unfinished_spans(events)
        assert [s["span_id"] for s in dangling] == ["s2"]
