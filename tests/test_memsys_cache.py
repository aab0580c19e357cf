"""Unit tests for the cache timing model."""

import pytest

from repro.errors import ConfigurationError
from repro.memsys.cache import AccessResult, CacheConfig, CacheModel


class TestCacheConfig:
    def test_table1_defaults(self):
        config = CacheConfig()
        assert config.size_bytes == 64 * 1024
        assert config.associativity == 2
        assert config.line_bytes == 64
        assert config.num_sets == 512

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=0)
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, line_bytes=64, associativity=2)
        with pytest.raises(ConfigurationError):
            CacheConfig(hit_latency=2, miss_latency=1)


class TestCacheBehaviour:
    def test_cold_miss_then_hit(self):
        cache = CacheModel(CacheConfig())
        first = cache.access(0x1000)
        second = cache.access(0x1000)
        assert not first.hit and first.latency == 6
        assert second.hit and second.latency == 1

    def test_same_line_hits(self):
        cache = CacheModel(CacheConfig())
        cache.access(0x1000)
        assert cache.access(0x103F).hit      # same 64-byte line
        assert not cache.access(0x1040).hit  # next line

    def test_lru_within_set(self):
        config = CacheConfig(size_bytes=256, associativity=2, line_bytes=64,
                             writeback=False, dirty_miss_latency=6)
        cache = CacheModel(config)          # 2 sets
        stride = config.num_sets * config.line_bytes
        a, b, c = 0x0, stride, 2 * stride   # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(a)                     # refresh a
        cache.access(c)                     # evicts b
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_dirty_eviction_costs_more(self):
        config = CacheConfig(size_bytes=256, associativity=1, line_bytes=64,
                             miss_latency=6, dirty_miss_latency=8)
        cache = CacheModel(config)
        stride = config.num_sets * config.line_bytes
        cache.access(0x0, is_write=True)            # dirty line
        result = cache.access(stride)               # evicts the dirty line
        assert isinstance(result, AccessResult)
        assert not result.hit
        assert result.latency == 8
        assert result.writeback

    def test_write_through_never_dirty(self):
        config = CacheConfig(size_bytes=256, associativity=1, line_bytes=64,
                             writeback=False, dirty_miss_latency=8)
        cache = CacheModel(config)
        stride = config.num_sets * config.line_bytes
        cache.access(0x0, is_write=True)
        result = cache.access(stride)
        assert result.latency == 6 and not result.writeback

    def test_hit_rate_statistics(self):
        cache = CacheModel(CacheConfig())
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x0)
        assert cache.hits == 2 and cache.misses == 1

    def test_probe_does_not_change_state(self):
        cache = CacheModel(CacheConfig())
        assert not cache.probe(0x2000)
        assert cache.misses == 0

    def test_mshr_limit_is_recorded_not_enforced(self):
        # Table 1's limit is kept in the configuration (and so in every
        # store key), but back-to-back misses never wait for an MSHR.
        config = CacheConfig(max_outstanding_misses=2)
        cache = CacheModel(config)
        latencies = [cache.access(line * config.line_bytes).latency for line in range(4)]
        assert latencies == [config.miss_latency] * 4
