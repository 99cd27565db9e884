"""Set-associative cache with yield-aware way configuration.

:class:`SetAssociativeCache` is a functional (hit/miss + latency) model.
Its :class:`WayConfig` captures everything the yield-aware schemes decide:

* per-way access latency in cycles (VACA ways may answer in 5),
* disabled vertical ways (YAPD),
* a disabled horizontal way (H-YAPD): with ``num_bands`` bands, the sets
  are partitioned into ``num_bands`` contiguous *address groups*, and
  group ``g`` of way ``w`` physically resides in band ``(g + w) mod B``
  (the paper's Figure 5 rotation). Disabling band ``b`` therefore removes
  exactly one — and a different — way from each group, so every address
  keeps ``ways - 1`` candidates and the hit/miss behaviour matches a
  ``ways - 1``-way cache, as the paper argues.

The model is write-allocate, write-back; dirty state is tracked so miss
traffic can be inspected, but writebacks are not separately timed (the
pipeline models stores as non-blocking through a store buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.core.errors import ConfigurationError
from repro.core.validation import require_positive
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["WayConfig", "AccessResult", "SetAssociativeCache"]


@dataclass(frozen=True)
class WayConfig:
    """Yield-aware way configuration of one cache.

    Attributes
    ----------
    latencies:
        Access cycles per way; ``None`` marks a way disabled by YAPD.
        Length must equal the cache's associativity.
    disabled_band:
        H-YAPD: the powered-down horizontal band index, or ``None``.
    num_bands:
        Number of horizontal bands (only meaningful with H-YAPD).
    """

    latencies: Tuple[Optional[int], ...]
    disabled_band: Optional[int] = None
    num_bands: int = 4

    def __post_init__(self) -> None:
        if not self.latencies:
            raise ConfigurationError("latencies must not be empty")
        enabled = [lat for lat in self.latencies if lat is not None]
        if not enabled:
            raise ConfigurationError("at least one way must stay enabled")
        for lat in enabled:
            if lat < 1:
                raise ConfigurationError(f"way latency must be >= 1, got {lat}")
        if self.disabled_band is not None:
            if any(lat is None for lat in self.latencies):
                raise ConfigurationError(
                    "cannot combine YAPD way-disable with H-YAPD band-disable"
                )
            if not 0 <= self.disabled_band < self.num_bands:
                raise ConfigurationError(
                    f"disabled_band {self.disabled_band} out of range"
                )

    @classmethod
    def uniform(cls, ways: int, latency: int = BASE_ACCESS_CYCLES) -> "WayConfig":
        """All ways enabled at the same latency (the healthy-chip config)."""
        return cls(latencies=tuple(latency for _ in range(ways)))

    @property
    def num_ways(self) -> int:
        return len(self.latencies)

    def way_enabled_for_group(self, way: int, group: int) -> bool:
        """Is ``way`` usable for H-YAPD address group ``group``?"""
        if self.latencies[way] is None:
            return False
        if self.disabled_band is None:
            return True
        band = (group + way) % self.num_bands
        return band != self.disabled_band


class AccessResult(NamedTuple):
    """Outcome of one :meth:`SetAssociativeCache.fill`."""

    hit: bool
    way: Optional[int]
    latency: Optional[int]
    set_index: int
    evicted_block: Optional[int] = None
    evicted_dirty: bool = False


class SetAssociativeCache:
    """Functional set-associative LRU cache with yield-aware configuration.

    Each set keeps a tag list and a dirty list indexed by way (``None``
    marks an empty way), a recency list of its filled ways, least recent
    first, and a free list of its empty eligible ways. A set's lists are
    made at its first fill, so a simulation builds none for the sets it
    never touches; a set not yet filled misses.

    Parameters
    ----------
    geometry:
        Sets/ways/blocks arithmetic.
    config:
        Way latencies and disables; defaults to all ways at the base
        latency.
    name:
        Label used in statistics.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        config: Optional[WayConfig] = None,
        name: str = "cache",
    ) -> None:
        self.geometry = geometry
        self.config = (
            config
            if config is not None
            else WayConfig.uniform(geometry.associativity)
        )
        ways = geometry.associativity
        if self.config.num_ways != ways:
            raise ConfigurationError(
                f"config has {self.config.num_ways} ways, geometry has "
                f"{ways}"
            )
        self.name = name
        num_sets = geometry.num_sets
        self._offset_bits = geometry.block_bytes.bit_length() - 1
        self._set_bits = num_sets.bit_length() - 1
        self._set_mask = num_sets - 1
        self._latencies = self.config.latencies
        # A set's tag, dirty, recency and free lists are made at its first
        # fill. Until then its tags read as the shared all-empty tuple (so
        # every lookup misses) and its other lists as None. Every filled
        # way is in its set's recency list, least recent first, and every
        # empty eligible way in its free list, in ascending order: a set
        # is full exactly when its free list is empty, and its victim is
        # the recency list's head.
        self._tags: List[Sequence[Optional[int]]] = [(None,) * ways] * num_sets
        self._dirty: List[Optional[List[bool]]] = [None] * num_sets
        self._recency: List[Optional[List[int]]] = [None] * num_sets
        self._free: List[Optional[List[int]]] = [None] * num_sets
        self._eligible = self._eligible_per_set()
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.way_hits = [0] * ways

    def _eligible_per_set(self) -> List[Tuple[int, ...]]:
        """Each set's usable ways, from its H-YAPD address group.

        The way configuration is frozen, so this is computed once. An
        H-YAPD band disable on a cache with fewer ways than bands can
        leave an address group with *zero* usable ways — rejected here
        with a clear error instead of failing mid-simulation.
        """
        geometry = self.geometry
        config = self.config
        num_sets = geometry.num_sets
        num_bands = config.num_bands
        # H-YAPD address groups (paper Figure 5) are contiguous runs of
        # sets_per_group sets; any sets left over join the last group.
        require_positive(num_bands, "num_groups")
        sets_per_group = max(num_sets // num_bands, 1)
        last_group = min((num_sets - 1) // sets_per_group, num_bands - 1)
        eligible_per_set: List[Tuple[int, ...]] = []
        for group in range(last_group + 1):
            eligible = tuple(
                w
                for w in range(geometry.associativity)
                if config.way_enabled_for_group(w, group)
            )
            if not eligible:
                raise ConfigurationError(
                    f"{self.name}: H-YAPD band disable leaves address "
                    f"group {group} with zero usable ways "
                    f"({geometry.associativity} ways, {num_bands} bands, "
                    f"band {config.disabled_band} disabled)"
                )
            end = (
                num_sets if group == last_group
                else (group + 1) * sets_per_group
            )
            eligible_per_set += [eligible] * (end - len(eligible_per_set))
        return eligible_per_set

    # ------------------------------------------------------------------
    def access_way(self, address: int, write: bool = False) -> int:
        """Look up ``address``: the way that hit, or -1 on a miss.

        A hit updates LRU (and the dirty bit for writes). Misses do *not*
        allocate — call :meth:`fill` when the refill arrives, which is
        how the hierarchy models non-blocking misses. Only eligible ways
        are ever filled, so the first tag match in the set is the hit (a
        block is never resident twice: :meth:`fill` re-probes).
        """
        block = address >> self._offset_bits
        set_index = block & self._set_mask
        tags = self._tags[set_index]
        tag = block >> self._set_bits
        if tag not in tags:
            self.misses += 1
            return -1
        way = tags.index(tag)
        self.hits += 1
        self.way_hits[way] += 1
        recency = self._recency[set_index]
        if recency[-1] != way:
            recency.remove(way)
            recency.append(way)
        if write:
            self._dirty[set_index][way] = True
        return way

    def fill(self, address: int, dirty: bool = False) -> AccessResult:
        """Install the block of ``address``, evicting if necessary."""
        block = address >> self._offset_bits
        set_index = block & self._set_mask
        tags = self._tags[set_index]
        tag = block >> self._set_bits
        recency = self._recency[set_index]
        if tag in tags:
            # Another outstanding miss already refilled this block.
            way = tags.index(tag)
            if recency[-1] != way:
                recency.remove(way)
                recency.append(way)
            if dirty:
                self._dirty[set_index][way] = True
            return AccessResult(True, way, self._latencies[way], set_index)
        free = self._free[set_index]
        if free is None:  # the set's first fill
            ways = self.geometry.associativity
            tags = self._tags[set_index] = [None] * ways
            dirty_bits = self._dirty[set_index] = [False] * ways
            recency = self._recency[set_index] = []
            free = self._free[set_index] = list(self._eligible[set_index])
        else:
            dirty_bits = self._dirty[set_index]
        evicted_block: Optional[int] = None
        evicted_dirty = False
        if free:
            # Spread cold fills across the empty ways (hash by block
            # address): always picking the lowest index would park the
            # long-lived hot blocks in the low ways and starve the high
            # ways of hits, which would bias every per-way-latency
            # experiment.
            way = free.pop(block % len(free))
        else:
            way = recency.pop(0)
            evicted_block = (tags[way] << self._set_bits) | set_index
            evicted_dirty = dirty_bits[way]
            self.evictions += 1
        tags[way] = tag
        dirty_bits[way] = dirty
        recency.append(way)
        return AccessResult(
            False,
            way,
            self._latencies[way],
            set_index,
            evicted_block,
            evicted_dirty,
        )

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss ratio over all accesses so far (0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_statistics(self) -> None:
        """Zero the counters without touching cache contents."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.way_hits = [0] * self.geometry.associativity
