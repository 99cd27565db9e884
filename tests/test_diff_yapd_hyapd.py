"""Differential test: YAPD vs H-YAPD cache behaviour (paper Section 4.2).

The paper's central functional claim for H-YAPD is that the modified
post-decoders keep hit/miss behaviour identical to YAPD: with one
horizontal band gated off, every address still maps to exactly ``A - 1``
candidate ways, so the cache behaves like the same cache with one
*vertical* way gated off.

This suite checks that claim differentially over randomized
configurations (associativity, geometry, disabled band, disabled way)
and randomized access traces: the two organisations must produce the
same hit/miss outcome on *every* access — not merely equal totals — and
the block filled on each miss must land in the positionally-equivalent
way. The randomization is seeded, so failures replay exactly.
"""

from __future__ import annotations

import random

import pytest

from oracles.setassoc import address_group, set_of
from repro.cache import CacheGeometry, SetAssociativeCache, WayConfig

#: Number of randomized configurations (the issue requires >= 100).
NUM_CONFIGS = 120

_BASE_SEED = 0xC0FFEE


def _random_config(index: int) -> dict:
    """One reproducible random cache configuration + access trace."""
    rng = random.Random(_BASE_SEED + index)
    ways = rng.choice((2, 4, 8))
    num_sets = rng.choice((16, 32, 64, 128))
    block = rng.choice((16, 32, 64))
    geometry = CacheGeometry(num_sets * ways * block, ways, block)
    # Confine the trace to a few sets and tags so it produces real
    # conflict misses and evictions, not just cold fills.
    hot_sets = rng.sample(range(num_sets), k=min(num_sets, rng.randint(2, 8)))
    set_bits = num_sets.bit_length() - 1
    offset_bits = block.bit_length() - 1
    accesses = []
    for _ in range(rng.randint(120, 200)):
        block_addr = (rng.randint(0, 11) << set_bits) | rng.choice(hot_sets)
        accesses.append((block_addr << offset_bits, rng.random() < 0.3))
    return {
        "geometry": geometry,
        "ways": ways,
        # The band/way rotation only removes one way from *every* group
        # when there are as many bands as ways.
        "num_bands": ways,
        "disabled_band": rng.randrange(ways),
        "disabled_way": rng.randrange(ways),
        "accesses": accesses,
    }


def _hyapd_cache(cfg: dict) -> SetAssociativeCache:
    return SetAssociativeCache(
        cfg["geometry"],
        WayConfig(
            latencies=(4,) * cfg["ways"],
            disabled_band=cfg["disabled_band"],
            num_bands=cfg["num_bands"],
        ),
    )


def _eligible(cache: SetAssociativeCache, set_index: int) -> list:
    """The ways the cache may fill in ``set_index``."""
    return list(cache._eligible[set_index])


def _yapd_cache(cfg: dict) -> SetAssociativeCache:
    return SetAssociativeCache(
        cfg["geometry"],
        WayConfig(
            latencies=tuple(
                None if way == cfg["disabled_way"] else 4
                for way in range(cfg["ways"])
            )
        ),
    )


@pytest.mark.parametrize("index", range(NUM_CONFIGS))
def test_randomized_config_is_equivalent(index):
    """Post-decoder property + identical hit/miss sequence for one config."""
    cfg = _random_config(index)
    geometry, ways = cfg["geometry"], cfg["ways"]
    hyapd = _hyapd_cache(cfg)
    yapd = _yapd_cache(cfg)

    # --- post-decoder property: every address keeps exactly A-1 ways,
    # and which way is lost rotates through all of them.
    lost_ways = set()
    for set_index in range(geometry.num_sets):
        eligible = _eligible(hyapd, set_index)
        assert len(eligible) == ways - 1, (
            f"config {index}: set {set_index} has {len(eligible)} candidate "
            f"ways, expected {ways - 1}"
        )
        (lost,) = set(range(ways)) - set(eligible)
        group = address_group(geometry, set_index, cfg["num_bands"])
        assert (group + lost) % cfg["num_bands"] == cfg["disabled_band"]
        lost_ways.add(lost)
    assert lost_ways == set(range(ways))

    # --- differential run: identical hit/miss on every access, and each
    # miss fills the positionally-equivalent way (i-th eligible way of
    # the set in both organisations).
    for step, (address, write) in enumerate(cfg["accesses"]):
        h_hit = hyapd.access_way(address, write=write) >= 0
        y_hit = yapd.access_way(address, write=write) >= 0
        assert h_hit == y_hit, (
            f"config {index}, access {step}: H-YAPD "
            f"{'hit' if h_hit else 'miss'} but YAPD "
            f"{'hit' if y_hit else 'miss'} at {address:#x}"
        )
        if not h_hit:
            h_fill = hyapd.fill(address, dirty=write)
            y_fill = yapd.fill(address, dirty=write)
            set_index = h_fill.set_index
            h_pos = _eligible(hyapd, set_index).index(h_fill.way)
            y_pos = _eligible(yapd, set_index).index(y_fill.way)
            assert h_pos == y_pos, (
                f"config {index}, access {step}: fills diverged "
                f"positionally (H-YAPD way {h_fill.way} at {h_pos}, "
                f"YAPD way {y_fill.way} at {y_pos})"
            )
            assert h_fill.evicted_dirty == y_fill.evicted_dirty

    assert (hyapd.hits, hyapd.misses, hyapd.evictions) == (
        yapd.hits, yapd.misses, yapd.evictions,
    )
    assert hyapd.accesses == len(cfg["accesses"])


def test_configs_cover_the_design_space():
    """The seeded sample actually varies every dimension it randomizes."""
    configs = [_random_config(i) for i in range(NUM_CONFIGS)]
    assert {c["ways"] for c in configs} == {2, 4, 8}
    assert len({c["geometry"].num_sets for c in configs}) >= 3
    assert len({c["geometry"].block_bytes for c in configs}) >= 3
    # Disabled band and disabled way are independent draws.
    assert any(c["disabled_band"] != c["disabled_way"] for c in configs)


def test_disabled_band_way_is_never_used():
    """No hit or fill is ever served by a gated (group, way) location."""
    cfg = _random_config(3)
    cache = _hyapd_cache(cfg)
    geometry = cfg["geometry"]
    for address, write in cfg["accesses"]:
        way = cache.access_way(address, write=write)
        if way < 0:
            way = cache.fill(address, dirty=write).way
        group = address_group(
            geometry, set_of(geometry, address), cfg["num_bands"]
        )
        band = (group + way) % cfg["num_bands"]
        assert band != cfg["disabled_band"]
