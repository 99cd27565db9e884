"""Tests for the H-YAPD horizontal-way address mapping (paper Figure 5).

The invariants the paper's modified post-decoder guarantees:

* group ``g`` of way ``w`` lives in band ``(g + w) mod B``;
* disabling one band removes exactly one way from every address group
  (and a *different* way per group);
* therefore every address retains ``ways - 1`` candidate locations and
  hit/miss behaviour matches YAPD's 3-way cache exactly.
"""

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.cache import CacheGeometry, SetAssociativeCache, WayConfig
from repro.core import units

GEOM = CacheGeometry(16 * units.KB, 4, 32)


def addr(set_index: int, tag: int) -> int:
    return ((tag << 7) | set_index) << 5


def hyapd_config(band: int) -> WayConfig:
    return WayConfig(latencies=(4, 4, 4, 4), disabled_band=band, num_bands=4)


def eligible_ways(cache: SetAssociativeCache, set_index: int) -> list:
    """The ways the cache may fill in ``set_index``."""
    return list(cache._eligible[set_index])


class TestMappingInvariants:
    @pytest.mark.parametrize("band", range(4))
    def test_every_set_loses_exactly_one_way(self, band):
        cache = SetAssociativeCache(GEOM, hyapd_config(band))
        for set_index in range(GEOM.num_sets):
            assert len(eligible_ways(cache, set_index)) == 3

    @pytest.mark.parametrize("band", range(4))
    def test_lost_way_differs_per_group(self, band):
        cache = SetAssociativeCache(GEOM, hyapd_config(band))
        sets_per_group = GEOM.num_sets // 4
        lost = []
        for group in range(4):
            eligible = set(eligible_ways(cache, group * sets_per_group))
            missing = set(range(4)) - eligible
            assert len(missing) == 1
            lost.append(missing.pop())
        assert sorted(lost) == [0, 1, 2, 3]

    def test_paper_example_band0(self):
        """Paper: with h-way 0 off, lines 0-31 may live in ways 1, 2, 3."""
        cache = SetAssociativeCache(GEOM, hyapd_config(0))
        assert eligible_ways(cache, 0) == [1, 2, 3]

    def test_paper_example_last_group(self):
        """...while the last address group loses a different way (its own
        rotation maps group 3 to band 0 in way 1)."""
        cache = SetAssociativeCache(GEOM, hyapd_config(0))
        last_group_set = GEOM.num_sets - 1
        assert 0 in eligible_ways(cache, last_group_set)
        assert len(eligible_ways(cache, last_group_set)) == 3

    def test_no_disable_keeps_all_ways(self):
        config = WayConfig(latencies=(4, 4, 4, 4))
        cache = SetAssociativeCache(GEOM, config)
        for set_index in range(0, GEOM.num_sets, 17):
            assert len(eligible_ways(cache, set_index)) == 4


class TestHitMissEquivalence:
    """H-YAPD and YAPD have identical hit/miss behaviour (paper 4.2)."""

    @hsettings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=127),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=10,
            max_size=120,
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_miss_counts_match_three_way(self, accesses, band):
        hyapd = SetAssociativeCache(GEOM, hyapd_config(band))
        yapd = SetAssociativeCache(
            GEOM, WayConfig(latencies=(4, 4, 4, None))
        )
        for set_index, tag in accesses:
            a = addr(set_index, tag)
            for cache in (hyapd, yapd):
                if cache.access_way(a) < 0:
                    cache.fill(a)
        assert hyapd.misses == yapd.misses
        assert hyapd.hits == yapd.hits

    def test_disabled_band_way_never_serves_group(self):
        cache = SetAssociativeCache(GEOM, hyapd_config(2))
        sets_per_group = GEOM.num_sets // 4
        for group in range(4):
            blocked_way = (2 - group) % 4
            set_index = group * sets_per_group + 1
            for tag in range(8):
                a = addr(set_index, tag)
                if cache.access_way(a) < 0:
                    result = cache.fill(a)
                    assert result.way != blocked_way
