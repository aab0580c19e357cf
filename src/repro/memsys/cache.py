"""Set-associative cache timing model (used for both I-cache and D-cache).

Table 1 of the paper specifies 64KB, 2-way, 64-byte lines for both
caches, with a 1-cycle hit, a 6-cycle miss (8 cycles for a dirty D-cache
miss) and up to 16 outstanding misses for the D-cache.  The model here
tracks tags, dirty bits and LRU state and returns the latency of each
access.  The outstanding-miss limit is not modelled: misses never wait
for an MSHR, and ``CacheConfig.max_outstanding_misses`` only records
Table 1's value (it is part of every configuration's store key).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache."""

    size_bytes: int = 64 * 1024
    associativity: int = 2
    line_bytes: int = 64
    hit_latency: int = 1
    miss_latency: int = 6
    dirty_miss_latency: int = 8
    writeback: bool = True
    max_outstanding_misses: int = 16

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError("cache geometry values must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigurationError(
                "size_bytes must be a multiple of line_bytes * associativity"
            )
        if self.hit_latency <= 0 or self.miss_latency < self.hit_latency:
            raise ConfigurationError("miss latency must be >= hit latency > 0")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    latency: int
    writeback: bool = False


class _Line:
    __slots__ = ("tag", "dirty", "lru")

    def __init__(self, tag: int, lru: int) -> None:
        self.tag = tag
        self.dirty = False
        self.lru = lru


class CacheModel:
    """A set-associative, write-back (or write-through) cache timing model."""

    def __init__(self, config: CacheConfig | None = None, name: str = "cache") -> None:
        self.config = config or CacheConfig()
        self.name = name
        self._sets: List[Dict[int, _Line]] = [dict() for _ in range(self.config.num_sets)]
        self._lru_clock = 0
        self.hits = 0
        self.misses = 0
        # Geometry/timing hoisted out of the per-access path, plus shared
        # result objects for the two timing-identical outcomes (the
        # results are frozen, so sharing them is safe).
        self._line_bytes = self.config.line_bytes
        self._num_sets = self.config.num_sets
        self._is_writeback = self.config.writeback
        self._hit_result = AccessResult(hit=True, latency=self.config.hit_latency)
        self._miss_result = AccessResult(hit=False, latency=self.config.miss_latency)

    # ------------------------------------------------------------------

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self._line_bytes
        set_index = line % self._num_sets
        tag = line // self._num_sets
        return set_index, tag

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Access ``address``; returns hit/miss and the access latency."""
        self._lru_clock += 1
        line_index = address // self._line_bytes
        cache_set = self._sets[line_index % self._num_sets]
        line = cache_set.get(line_index // self._num_sets)
        if line is not None:
            line.lru = self._lru_clock
            if is_write and self._is_writeback:
                line.dirty = True
            self.hits += 1
            return self._hit_result

        self.misses += 1
        victim_dirty = self._fill(cache_set, line_index // self._num_sets, is_write)
        if not victim_dirty:
            return self._miss_result
        return AccessResult(hit=False, latency=self.config.dirty_miss_latency,
                            writeback=True)

    def probe(self, address: int) -> bool:
        """Return whether ``address`` currently hits, without updating state."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def _fill(self, cache_set: Dict[int, _Line], tag: int, is_write: bool) -> bool:
        """Insert ``tag`` into ``cache_set``; returns True if a dirty victim
        had to be written back."""
        victim_dirty = False
        if len(cache_set) >= self.config.associativity:
            victim_tag = min(cache_set, key=lambda t: cache_set[t].lru)
            victim_dirty = cache_set[victim_tag].dirty and self.config.writeback
            del cache_set[victim_tag]
        new_line = _Line(tag, self._lru_clock)
        if is_write and self.config.writeback:
            new_line.dirty = True
        cache_set[tag] = new_line
        return victim_dirty
