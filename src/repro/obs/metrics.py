"""The metrics registry: counters, gauges, histograms, window rates.

Every instrument is a tiny lock-guarded object created once and updated
on hot paths with one lock acquisition — no string formatting, no
allocation beyond the first call.  The registry is process-local; the
fleet-wide view is built by *merging* snapshots: counters add, gauges
take the reporter's value, histograms add bucket-wise.  Merging is
exact because every histogram of a given name uses the same **fixed
exponential bucket bounds** — a merged histogram equals the histogram
of the concatenated samples (property-tested in
``tests/test_obs_metrics.py``).

Histogram bounds default to :data:`DEFAULT_BUCKETS` (1 ms doubling up
to ~131 s), chosen to straddle everything the sweep service times:
storage appends (sub-millisecond) through whole-job walls (minutes).
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: Fixed exponential bucket upper bounds, in seconds: 1 ms × 2^i.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    0.001 * (2.0**i) for i in range(18)
)


class Counter:
    """Monotonically increasing value (ints or float seconds)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:  # noqa: A002
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def int_value(self) -> int:
        """The counter as an integer (counts, not seconds)."""
        return int(round(self.value))


class Gauge:
    """A value that can go both ways (queue depth, held leases)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:  # noqa: A002
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative-bucket histogram over fixed exponential bounds.

    ``observe`` is O(log buckets) (a bisect); the stored counts are
    *per-bucket* (non-cumulative) — the Prometheus renderer produces
    the cumulative ``_bucket`` series on the way out.  The final
    implicit bucket is ``+Inf``.
    """

    __slots__ = ("name", "help", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def time(self) -> "_Timer":
        """``with histogram.time(): ...`` observes the block's duration."""
        return _Timer(self)

    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def to_payload(self) -> dict:
        """JSON-safe snapshot: bounds, per-bucket counts, sum, count."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def merge_payload(self, payload: dict) -> None:
        """Fold a :meth:`to_payload` snapshot in (bucket-wise addition).

        Raises :class:`ValueError` on mismatched bounds — merging
        histograms of different shapes would silently corrupt both.
        """
        bounds = payload.get("bounds")
        counts = payload.get("counts")
        if tuple(bounds or ()) != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched bounds"
            )
        if not isinstance(counts, list) or len(counts) != len(self._counts):
            raise ValueError(f"histogram {self.name!r}: malformed counts")
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += int(count)
            self._sum += float(payload.get("sum", 0.0))
            self._count += int(payload.get("count", 0))

    def merge(self, other: "Histogram") -> None:
        self.merge_payload(other.to_payload())

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile by linear interpolation inside the
        owning bucket (0 when empty; the top bound for the +Inf bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0.0
        for index, count in enumerate(counts):
            seen += count
            if seen >= rank and count:
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]
                )
                lower = self.bounds[index - 1] if index > 0 else 0.0
                if index >= len(self.bounds):
                    return upper  # +Inf bucket: clamp to the top bound
                fraction = (rank - (seen - count)) / count
                return lower + (upper - lower) * fraction
        return self.bounds[-1]


class _Timer:
    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class RateWindow:
    """Sliding-window event rate (the ``/metrics`` points/min fix).

    A long-lived replica's lifetime average flattens every burst into
    noise; this window reports *current* throughput instead.  ``record``
    appends ``(now, n)``; :meth:`per_minute` sums the events inside the
    trailing ``window`` seconds and scales by the window actually
    elapsed (a replica 10 s old reports its 10 s rate, not a 60 s
    dilution).
    """

    def __init__(
        self,
        window_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        max_samples: int = 4096,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self.clock = clock
        self._samples: deque = deque(maxlen=max_samples)
        self._opened = clock()
        self._lock = threading.Lock()

    def record(self, count: int = 1) -> None:
        now = self.clock()
        with self._lock:
            self._samples.append((now, count))

    def per_minute(self) -> float:
        now = self.clock()
        cutoff = now - self.window_s
        with self._lock:
            while self._samples and self._samples[0][0] < cutoff:
                self._samples.popleft()
            total = sum(count for _, count in self._samples)
            elapsed = min(self.window_s, max(now - self._opened, 1e-9))
        if total == 0:
            return 0.0
        return round(total * 60.0 / elapsed, 2)


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able as JSON.

    One registry per reporting process (the service app owns one); the
    deeper layers receive the instruments they update, not the registry.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:  # noqa: A002
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name, help)
            return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:  # noqa: A002
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, help)
            return instrument

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, help, buckets
                )
            elif tuple(sorted(float(b) for b in buckets)) != instrument.bounds:
                raise ValueError(
                    f"histogram {name!r} already registered with different "
                    f"buckets"
                )
            return instrument

    # ------------------------------------------------------------------

    def counters(self) -> List[Counter]:
        with self._lock:
            return list(self._counters.values())

    def gauges(self) -> List[Gauge]:
        with self._lock:
            return list(self._gauges.values())

    def histograms(self) -> List[Histogram]:
        with self._lock:
            return list(self._histograms.values())

    def histogram_payloads(self) -> Dict[str, dict]:
        """Every histogram's mergeable snapshot, by name (fleet publish)."""
        return {h.name: h.to_payload() for h in self.histograms()}

    def merge_histogram_payloads(self, payloads: Iterable[Tuple[str, dict]],
                                 into: "MetricsRegistry") -> int:
        """Merge ``(name, payload)`` snapshots into ``into``; returns the
        number of payloads rejected as malformed (mismatched bounds,
        garbage counts) rather than merged."""
        errors = 0
        for name, payload in payloads:
            try:
                bounds = payload["bounds"]
                target = into.histogram(name, buckets=bounds)
                target.merge_payload(payload)
            except (KeyError, TypeError, ValueError):
                errors += 1
        return errors
