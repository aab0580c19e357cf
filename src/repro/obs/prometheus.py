"""Prometheus text exposition (format 0.0.4) and a minimal parser.

:func:`render` turns a :class:`~repro.obs.metrics.MetricsRegistry` into
the classic text format: ``# HELP``/``# TYPE`` headers, counters with a
``_total`` suffix, the registry's collected values as gauges,
histograms as cumulative ``_bucket{le=...}`` series plus
``_sum``/``_count``.  Metric names are sanitized into the
Prometheus grammar and prefixed ``repro_``; every sample carries the
``replica`` label, so a fleet-wide figure is the sum of the replicas'
scrapes.

:func:`parse` is the deliberately small inverse used by the tests and
the CI ``obs`` job to *validate* what the server serves — it checks the
grammar (name syntax, label quoting, value floats, cumulative bucket
monotonicity) and returns structured samples.  It is a test instrument,
not a general client.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_name(name: str) -> str:
    """``points.completed`` → ``repro_points_completed``."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = f"_{cleaned}"
    if not cleaned.startswith("repro_"):
        cleaned = f"repro_{cleaned}"
    return cleaned


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render(registry: MetricsRegistry, replica: Optional[str] = None) -> str:
    """The registry as exposition text (ends with a newline)."""
    base_labels: Dict[str, str] = {}
    if replica:
        base_labels["replica"] = replica
    lines: List[str] = []

    for counter in sorted(registry.counters(), key=lambda c: c.name):
        name = sanitize_name(counter.name)
        if not name.endswith("_total"):
            name += "_total"
        if counter.help:
            lines.append(f"# HELP {name} {counter.help}")
        lines.append(f"# TYPE {name} counter")
        lines.append(
            f"{name}{_labels_text(base_labels)} "
            f"{_format_value(counter.value)}"
        )

    for dotted, value in sorted(registry.collect().items()):
        name = sanitize_name(dotted)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_labels_text(base_labels)} {_format_value(value)}")

    for histogram in sorted(registry.histograms(), key=lambda h: h.name):
        name = sanitize_name(histogram.name)
        payload = histogram.to_payload()
        if histogram.help:
            lines.append(f"# HELP {name} {histogram.help}")
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cumulative += count
            labels = dict(base_labels, le=_format_value(bound))
            lines.append(
                f"{name}_bucket{_labels_text(labels)} {cumulative}"
            )
        cumulative += payload["counts"][-1]
        labels = dict(base_labels, le="+Inf")
        lines.append(f"{name}_bucket{_labels_text(labels)} {cumulative}")
        lines.append(
            f"{name}_sum{_labels_text(base_labels)} "
            f"{_format_value(payload['sum'])}"
        )
        lines.append(
            f"{name}_count{_labels_text(base_labels)} {payload['count']}"
        )

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the validating parser (tests + CI)
# ----------------------------------------------------------------------


class Sample(NamedTuple):
    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float


class ExpositionError(ValueError):
    """The text violates the exposition grammar (with a line number)."""


def _parse_value(text: str, line_no: int) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ExpositionError(f"line {line_no}: bad sample value {text!r}")


def parse(text: str) -> Dict[str, List[Sample]]:
    """Samples grouped by metric name, validating as it goes.

    Checks: every sample line matches the grammar; every sample is
    preceded by a ``# TYPE`` for its family; histogram ``_bucket``
    series are cumulative (non-decreasing in ``le`` order) and end at
    ``le="+Inf"`` equal to ``_count``.  Raises :class:`ExpositionError`
    on the first violation.
    """
    types: Dict[str, str] = {}
    samples: Dict[str, List[Sample]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped",
            ):
                raise ExpositionError(f"line {line_no}: malformed TYPE line")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(f"line {line_no}: malformed sample {raw!r}")
        name = match.group("name")
        labels_text = match.group("labels") or ""
        labels: List[Tuple[str, str]] = []
        if labels_text:
            consumed = 0
            for pair in _LABEL_RE.finditer(labels_text):
                # Junk between (or before) matches is malformed too —
                # only a separating comma and whitespace may sit there.
                gap = labels_text[consumed:pair.start()].strip()
                if gap not in ("", ","):
                    raise ExpositionError(
                        f"line {line_no}: malformed labels {labels_text!r}"
                    )
                labels.append((pair.group(1), pair.group(2)))
                consumed = pair.end()
            remainder = labels_text[consumed:].strip().strip(",")
            if remainder:
                raise ExpositionError(
                    f"line {line_no}: malformed labels {labels_text!r}"
                )
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            raise ExpositionError(
                f"line {line_no}: sample {name!r} has no TYPE header"
            )
        value = _parse_value(match.group("value"), line_no)
        samples.setdefault(family, []).append(
            Sample(name, tuple(labels), value)
        )

    for family, family_type in types.items():
        if family_type != "histogram":
            continue
        _validate_histogram(family, samples.get(family, []))
    return samples


def _validate_histogram(family: str, family_samples: List[Sample]) -> None:
    """Per label-set (minus ``le``): buckets cumulative, +Inf == _count."""
    buckets: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
    for sample in family_samples:
        if sample.name == f"{family}_bucket":
            rest = tuple(kv for kv in sample.labels if kv[0] != "le")
            le = dict(sample.labels).get("le")
            if le is None:
                raise ExpositionError(
                    f"{family}: bucket sample missing le label"
                )
            buckets.setdefault(rest, []).append(
                (_parse_value(le, 0), sample.value)
            )
        elif sample.name == f"{family}_count":
            counts[sample.labels] = sample.value
    for rest, series in buckets.items():
        series.sort(key=lambda pair: pair[0])
        previous = -math.inf
        for bound, value in series:
            if value < previous:
                raise ExpositionError(
                    f"{family}: bucket series not cumulative at le={bound}"
                )
            previous = value
        if not series or series[-1][0] != math.inf:
            raise ExpositionError(f"{family}: bucket series missing +Inf")
        expected = counts.get(rest)
        if expected is not None and series[-1][1] != expected:
            raise ExpositionError(
                f"{family}: +Inf bucket {series[-1][1]} != _count {expected}"
            )
