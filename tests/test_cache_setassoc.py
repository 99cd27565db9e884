"""Tests for the functional set-associative cache and WayConfig."""

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.cache import (
    CacheGeometry,
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    SetAssociativeCache,
    WayConfig,
)
from repro.core import units
from repro.core.errors import ConfigurationError

GEOM = CacheGeometry(16 * units.KB, 4, 32)


def addr(set_index: int, tag: int) -> int:
    """Build an address in a given set with a given tag."""
    return ((tag << 7) | set_index) << 5


class TestWayConfig:
    def test_uniform(self):
        config = WayConfig.uniform(4)
        assert config.latencies == (4, 4, 4, 4)
        assert config.num_ways == 4

    def test_rejects_all_disabled(self):
        with pytest.raises(ConfigurationError):
            WayConfig(latencies=(None, None, None, None))

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            WayConfig(latencies=(4, 4, 4, 0))

    def test_rejects_band_plus_way_disable(self):
        with pytest.raises(ConfigurationError):
            WayConfig(latencies=(4, 4, 4, None), disabled_band=1)

    def test_rejects_band_out_of_range(self):
        with pytest.raises(ConfigurationError):
            WayConfig(latencies=(4, 4, 4, 4), disabled_band=4)


class TestBasicBehaviour:
    def test_miss_then_fill_then_hit(self):
        cache = SetAssociativeCache(GEOM)
        a = addr(3, 7)
        assert not cache.access(a).hit
        cache.fill(a)
        result = cache.access(a)
        assert result.hit
        assert result.latency == 4

    def test_lookup_does_not_touch_state(self):
        cache = SetAssociativeCache(GEOM)
        a = addr(3, 7)
        cache.fill(a)
        before_hits = cache.hits
        assert cache.lookup(a).hit
        assert cache.hits == before_hits

    def test_eviction_after_assoc_exhausted(self):
        cache = SetAssociativeCache(GEOM)
        tags = list(range(5))
        for tag in tags:
            cache.fill(addr(0, tag))
        # tag 0 was LRU and must be gone
        assert not cache.lookup(addr(0, 0)).hit
        assert cache.lookup(addr(0, 4)).hit
        assert cache.evictions == 1

    def test_lru_respects_recency(self):
        cache = SetAssociativeCache(GEOM)
        for tag in range(4):
            cache.fill(addr(0, tag))
        cache.access(addr(0, 0))  # make tag 0 MRU
        cache.fill(addr(0, 9))  # evicts tag 1, not tag 0
        assert cache.lookup(addr(0, 0)).hit
        assert not cache.lookup(addr(0, 1)).hit

    def test_dirty_tracking(self):
        cache = SetAssociativeCache(GEOM)
        a = addr(0, 1)
        cache.fill(a)
        cache.access(a, write=True)
        for tag in range(2, 6):
            result = cache.fill(addr(0, tag))
            if result.evicted_block == GEOM.block_address(a):
                assert result.evicted_dirty
                break
        else:
            pytest.fail("dirty block never evicted")

    def test_duplicate_fill_is_idempotent(self):
        cache = SetAssociativeCache(GEOM)
        a = addr(0, 1)
        first = cache.fill(a)
        second = cache.fill(a)
        assert second.way == first.way
        assert cache.evictions == 0

    def test_statistics(self):
        cache = SetAssociativeCache(GEOM)
        a = addr(0, 1)
        cache.access(a)
        cache.fill(a)
        cache.access(a)
        assert cache.accesses == 2
        assert cache.miss_rate == pytest.approx(0.5)
        cache.reset_statistics()
        assert cache.accesses == 0
        assert cache.lookup(a).hit  # contents survive the reset


class TestWayDisable:
    def test_disabled_way_never_hits(self):
        config = WayConfig(latencies=(4, 4, 4, None))
        cache = SetAssociativeCache(GEOM, config)
        for tag in range(20):
            cache.fill(addr(0, tag))
            result = cache.lookup(addr(0, tag))
            assert result.way != 3

    def test_effective_associativity(self):
        config = WayConfig(latencies=(4, 4, None, None))
        cache = SetAssociativeCache(GEOM, config)
        assert cache.effective_associativity(0) == 2

    def test_three_way_capacity(self):
        """With one way off, 4 distinct tags cannot coexist in a set."""
        config = WayConfig(latencies=(4, 4, 4, None))
        cache = SetAssociativeCache(GEOM, config)
        for tag in range(4):
            cache.fill(addr(0, tag))
        hits = sum(cache.lookup(addr(0, tag)).hit for tag in range(4))
        assert hits == 3

    def test_per_way_latency_reported(self):
        config = WayConfig(latencies=(4, 4, 4, 5))
        cache = SetAssociativeCache(GEOM, config)
        seen = set()
        for tag in range(4):
            a = addr(0, tag)
            cache.fill(a)
            seen.add(cache.lookup(a).latency)
        assert seen == {4, 5}

    def test_config_way_count_must_match(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(GEOM, WayConfig(latencies=(4, 4)))


class TestReplacementPolicies:
    def test_fifo_ignores_recency(self):
        cache = SetAssociativeCache(GEOM, policy_factory=FIFOPolicy)
        for tag in range(4):
            cache.fill(addr(0, tag))
        cache.access(addr(0, 0))  # touch does not matter for FIFO
        cache.fill(addr(0, 9))
        assert not cache.lookup(addr(0, 0)).hit

    def test_random_policy_is_deterministic_per_seed(self):
        import numpy as np

        def factory():
            return RandomPolicy(np.random.default_rng(3))

        caches = []
        for _ in range(2):
            cache = SetAssociativeCache(GEOM, policy_factory=factory)
            for tag in range(8):
                cache.fill(addr(0, tag))
            caches.append(
                tuple(cache.lookup(addr(0, tag)).hit for tag in range(8))
            )
        assert caches[0] == caches[1]

    def test_victim_requires_candidates(self):
        policy = LRUPolicy()
        with pytest.raises(ConfigurationError):
            policy.victim([])


@hsettings(max_examples=30, deadline=None)
@given(
    tags=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60)
)
def test_cache_never_exceeds_capacity(tags):
    """Property: a set holds at most `associativity` distinct blocks."""
    cache = SetAssociativeCache(GEOM)
    for tag in tags:
        if not cache.access(addr(5, tag)).hit:
            cache.fill(addr(5, tag))
    resident = sum(cache.lookup(addr(5, tag)).hit for tag in set(tags))
    assert resident <= GEOM.associativity
    recent = list(dict.fromkeys(reversed(tags)))[: GEOM.associativity]
    # the most recently used block is always resident
    assert cache.lookup(addr(5, recent[0])).hit
