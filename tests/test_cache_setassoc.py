"""Tests for the functional set-associative cache and WayConfig."""

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from oracles.setassoc import block_address, set_of, tag_of
from repro.cache import CacheGeometry, SetAssociativeCache, WayConfig
from repro.core import units
from repro.core.errors import ConfigurationError

GEOM = CacheGeometry(16 * units.KB, 4, 32)


def addr(set_index: int, tag: int) -> int:
    """Build an address in a given set with a given tag."""
    return ((tag << 7) | set_index) << 5


def resident_way(cache: SetAssociativeCache, address: int) -> int:
    """The way holding ``address``'s block, or -1; changes no state."""
    tags = cache._tags[set_of(cache.geometry, address)]
    tag = tag_of(cache.geometry, address)
    return tags.index(tag) if tag in tags else -1


def resident(cache: SetAssociativeCache, address: int) -> bool:
    return resident_way(cache, address) >= 0


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
        assert cache.access_way(a) == -1
        filled = cache.fill(a)
        assert cache.access_way(a) == filled.way
        assert filled.latency == 4

    def test_eviction_after_assoc_exhausted(self):
        cache = SetAssociativeCache(GEOM)
        tags = list(range(5))
        for tag in tags:
            cache.fill(addr(0, tag))
        # tag 0 was LRU and must be gone
        assert not resident(cache, addr(0, 0))
        assert resident(cache, addr(0, 4))
        assert cache.evictions == 1

    def test_lru_respects_recency(self):
        cache = SetAssociativeCache(GEOM)
        for tag in range(4):
            cache.fill(addr(0, tag))
        cache.access_way(addr(0, 0))  # make tag 0 MRU
        cache.fill(addr(0, 9))  # evicts tag 1, not tag 0
        assert resident(cache, addr(0, 0))
        assert not resident(cache, addr(0, 1))

    def test_dirty_tracking(self):
        cache = SetAssociativeCache(GEOM)
        a = addr(0, 1)
        cache.fill(a)
        cache.access_way(a, write=True)
        for tag in range(2, 6):
            result = cache.fill(addr(0, tag))
            if result.evicted_block == block_address(GEOM, a):
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
        cache.access_way(a)
        cache.fill(a)
        cache.access_way(a)
        assert cache.accesses == 2
        assert cache.miss_rate == pytest.approx(0.5)
        cache.reset_statistics()
        assert cache.accesses == 0
        assert resident(cache, a)  # contents survive the reset


class TestWayDisable:
    def test_disabled_way_never_hits(self):
        config = WayConfig(latencies=(4, 4, 4, None))
        cache = SetAssociativeCache(GEOM, config)
        for tag in range(20):
            cache.fill(addr(0, tag))
            assert resident_way(cache, addr(0, tag)) != 3

    def test_effective_associativity(self):
        """With two ways off, a set holds two blocks."""
        config = WayConfig(latencies=(4, 4, None, None))
        cache = SetAssociativeCache(GEOM, config)
        for tag in range(3):
            cache.fill(addr(0, tag))
        assert [resident(cache, addr(0, tag)) for tag in range(3)] == [
            False, True, True,
        ]
        assert cache.evictions == 1

    def test_three_way_capacity(self):
        """With one way off, 4 distinct tags cannot coexist in a set."""
        config = WayConfig(latencies=(4, 4, 4, None))
        cache = SetAssociativeCache(GEOM, config)
        for tag in range(4):
            cache.fill(addr(0, tag))
        hits = sum(resident(cache, addr(0, tag)) for tag in range(4))
        assert hits == 3

    def test_per_way_latency_reported(self):
        config = WayConfig(latencies=(4, 4, 4, 5))
        cache = SetAssociativeCache(GEOM, config)
        seen = set()
        for tag in range(4):
            seen.add(cache.fill(addr(0, tag)).latency)
        assert seen == {4, 5}

    def test_config_way_count_must_match(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(GEOM, WayConfig(latencies=(4, 4)))


@hsettings(max_examples=30, deadline=None)
@given(
    tags=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60)
)
def test_cache_never_exceeds_capacity(tags):
    """Property: a set holds at most `associativity` distinct blocks."""
    cache = SetAssociativeCache(GEOM)
    for tag in tags:
        if cache.access_way(addr(5, tag)) < 0:
            cache.fill(addr(5, tag))
    held = sum(resident(cache, addr(5, tag)) for tag in set(tags))
    assert held <= GEOM.associativity
    recent = list(dict.fromkeys(reversed(tags)))[: GEOM.associativity]
    # the most recently used block is always resident
    assert resident(cache, addr(5, recent[0]))
