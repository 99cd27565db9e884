"""Tests for cache geometry arithmetic and the cache's address mapping."""

import pytest
from hypothesis import given, strategies as st

from oracles.setassoc import address_group, block_address, set_of, tag_of
from repro.cache import CacheGeometry, SetAssociativeCache, WayConfig
from repro.core import units
from repro.core.errors import ConfigurationError


L1D = CacheGeometry(16 * units.KB, 4, 32)
L1I = CacheGeometry(16 * units.KB, 4, 64)
L2 = CacheGeometry(512 * units.KB, 8, 128)


class TestDerivedCounts:
    def test_l1d_sets(self):
        assert L1D.num_sets == 128

    def test_l1i_sets(self):
        assert L1I.num_sets == 64

    def test_l2_sets(self):
        assert L2.num_sets == 512


class TestAddressMapping:
    """The cache's split of an address into block, set and tag."""

    def test_block_address_strips_offset(self):
        assert block_address(L1D, 0x1000) == block_address(L1D, 0x101F)
        assert block_address(L1D, 0x1000) != block_address(L1D, 0x1020)
        cache = SetAssociativeCache(L1D)
        way = cache.fill(0x1000).way
        assert cache.access_way(0x101F) == way
        assert cache.access_way(0x1020) == -1

    def test_set_index_wraps(self):
        cache = SetAssociativeCache(L1D)
        assert cache.fill(0x0).set_index == set_of(L1D, 0x0) == 0
        # one full stride later
        assert cache.fill(128 * 32).set_index == set_of(L1D, 128 * 32) == 0
        assert cache.fill(32).set_index == set_of(L1D, 32) == 1

    def test_tag_distinguishes_aliases(self):
        a = 0x0
        b = 128 * 32  # same set, different tag
        assert set_of(L1D, a) == set_of(L1D, b)
        assert tag_of(L1D, a) != tag_of(L1D, b)
        cache = SetAssociativeCache(L1D)
        cache.fill(a)
        assert cache.access_way(b) == -1

    @given(st.integers(min_value=0, max_value=2**40))
    def test_mapping_consistency(self, address):
        """set/tag reconstruct the block address."""
        block = block_address(L1D, address)
        set_bits = L1D.num_sets.bit_length() - 1
        assert (tag_of(L1D, address) << set_bits) | set_of(L1D, address) \
            == block
        # The cache's own split: evicting the block names it again.
        cache = SetAssociativeCache(L1D)
        cache.fill(address)
        stride = L1D.num_sets * L1D.block_bytes
        evicted = [
            cache.fill(address + k * stride).evicted_block
            for k in range(1, L1D.associativity + 1)
        ]
        assert evicted[-1] == block


class TestHYAPDGroups:
    def test_four_groups_partition_sets(self):
        groups = [address_group(L1D, s, 4) for s in range(L1D.num_sets)]
        assert set(groups) == {0, 1, 2, 3}
        # contiguous ranges of equal size
        assert groups == sorted(groups)
        assert groups.count(0) == L1D.num_sets // 4
        # Band 0 of way w holds group (0 - w) mod 4 (paper Figure 5), so
        # powering band 0 down takes exactly that way from each group.
        config = WayConfig(latencies=(4, 4, 4, 4), disabled_band=0)
        cache = SetAssociativeCache(L1D, config)
        for set_index, group in enumerate(groups):
            off = {w for w in range(4) if w not in cache._eligible[set_index]}
            assert off == {-group % 4}

    def test_group_boundaries(self):
        per_group = L1D.num_sets // 4
        assert address_group(L1D, per_group - 1, 4) == 0
        assert address_group(L1D, per_group, 4) == 1

    def test_single_group(self):
        assert address_group(L1D, 77, 1) == 0

    def test_rejects_bad_group_count(self):
        with pytest.raises(ConfigurationError):
            address_group(L1D, 0, 0)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(L1D, WayConfig((4, 4, 4, 4), num_bands=0))


class TestValidation:
    def test_rejects_non_power_of_two_capacity(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(15 * 1024, 4, 32)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(16 * 1024, 4, 48)

    def test_rejects_capacity_not_divisible(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(16 * 1024, 3, 32)  # 16K/(3*32) not a power of 2
