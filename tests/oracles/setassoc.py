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
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from .replacement import LRUPolicy
from repro.core.errors import ConfigurationError
from repro.core.validation import require_positive
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "WayConfig",
    "address_group",
    "block_address",
    "set_of",
    "tag_of",
]


# ----------------------------------------------------------------------
# address mapping: the original ``CacheGeometry`` methods, as functions
# ----------------------------------------------------------------------
def block_address(geometry: CacheGeometry, address: int) -> int:
    """The block-aligned identifier of ``address``."""
    return address >> (geometry.block_bytes.bit_length() - 1)


def set_of(geometry: CacheGeometry, address: int) -> int:
    """The set ``address`` maps to."""
    return block_address(geometry, address) & (geometry.num_sets - 1)


def tag_of(geometry: CacheGeometry, address: int) -> int:
    """The tag of ``address``."""
    return block_address(geometry, address) >> (
        geometry.num_sets.bit_length() - 1
    )


def address_group(
    geometry: CacheGeometry, set_index: int, num_groups: int
) -> int:
    """The H-YAPD address group of a set (paper Figure 5).

    The paper partitions the line (set) space into ``num_groups``
    contiguous ranges; each range occupies a *different* horizontal
    band in each way, so disabling one band removes exactly one
    candidate way per group.
    """
    require_positive(num_groups, "num_groups")
    sets_per_group = max(geometry.num_sets // num_groups, 1)
    return min(set_index // sets_per_group, num_groups - 1)


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

    @classmethod
    def from_cycles(
        cls,
        way_cycles: Tuple[Optional[int], ...],
        disabled_band: Optional[int] = None,
        num_bands: int = 4,
    ) -> "WayConfig":
        """Build from a scheme's :class:`RescueOutcome.way_cycles`."""
        return cls(
            latencies=way_cycles,
            disabled_band=disabled_band,
            num_bands=num_bands,
        )

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


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache lookup."""

    hit: bool
    way: Optional[int]
    latency: Optional[int]
    set_index: int
    evicted_block: Optional[int] = None
    evicted_dirty: bool = False


class _Line:
    """One resident block (slotted: millions are churned per run)."""

    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int, dirty: bool = False) -> None:
        self.tag = tag
        self.dirty = dirty


class SetAssociativeCache:
    """Functional set-associative cache with yield-aware configuration.

    Parameters
    ----------
    geometry:
        Sets/ways/blocks arithmetic.
    config:
        Way latencies and disables; defaults to all ways at the base
        latency.
    policy_factory:
        Creates one replacement policy per set (default LRU).
    name:
        Label used in statistics.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        config: Optional[WayConfig] = None,
        policy_factory: Callable[[], LRUPolicy] = LRUPolicy,
        name: str = "cache",
    ) -> None:
        self.geometry = geometry
        self.config = (
            config
            if config is not None
            else WayConfig.uniform(geometry.associativity)
        )
        if self.config.num_ways != geometry.associativity:
            raise ConfigurationError(
                f"config has {self.config.num_ways} ways, geometry has "
                f"{geometry.associativity}"
            )
        self.name = name
        self._policy_factory = policy_factory
        self._eligible: List[Tuple[int, ...]] = []
        self._lines: List[Dict[int, Optional[_Line]]] = [
            {w: None for w in range(geometry.associativity)}
            for _ in range(geometry.num_sets)
        ]
        self._policies: List[LRUPolicy] = [
            policy_factory() for _ in range(geometry.num_sets)
        ]
        # The way configuration is frozen, so each set's eligible-way
        # list can be computed once here instead of per access. An
        # H-YAPD band disable on a cache with fewer ways than bands can
        # leave an address group with *zero* usable ways — reject that
        # here with a clear error instead of letting a replacement
        # policy fail mid-simulation.
        group_eligible: Dict[int, Tuple[int, ...]] = {}
        for set_index in range(geometry.num_sets):
            group = address_group(geometry, set_index, self.config.num_bands)
            if group not in group_eligible:
                eligible = tuple(
                    w
                    for w in range(geometry.associativity)
                    if self.config.way_enabled_for_group(w, group)
                )
                if not eligible:
                    raise ConfigurationError(
                        f"{name}: H-YAPD band disable leaves address group "
                        f"{group} with zero usable ways "
                        f"({geometry.associativity} ways, "
                        f"{self.config.num_bands} bands, band "
                        f"{self.config.disabled_band} disabled)"
                    )
                group_eligible[group] = eligible
            self._eligible.append(group_eligible[group])
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.way_hits = [0] * geometry.associativity

    # ------------------------------------------------------------------
    def _group(self, set_index: int) -> int:
        return address_group(self.geometry, set_index, self.config.num_bands)

    def eligible_ways(self, set_index: int) -> List[int]:
        """Ways usable for this set under the current configuration."""
        return list(self._eligible[set_index])

    def effective_associativity(self, set_index: int) -> int:
        """Number of usable ways for this set."""
        return len(self._eligible[set_index])

    # ------------------------------------------------------------------
    def lookup(self, address: int) -> AccessResult:
        """Probe without modifying any state (no LRU update)."""
        set_index = set_of(self.geometry, address)
        tag = tag_of(self.geometry, address)
        for way in self._eligible[set_index]:
            line = self._lines[set_index][way]
            if line is not None and line.tag == tag:
                return AccessResult(
                    hit=True,
                    way=way,
                    latency=self.config.latencies[way],
                    set_index=set_index,
                )
        return AccessResult(hit=False, way=None, latency=None, set_index=set_index)

    def access(self, address: int, write: bool = False) -> AccessResult:
        """Look up ``address``; on a hit update LRU (and dirty for writes).

        Misses do *not* allocate — call :meth:`fill` when the refill
        arrives, which is how the hierarchy models non-blocking misses.
        """
        result = self.lookup(address)
        set_index = result.set_index
        if result.hit:
            assert result.way is not None
            self.hits += 1
            self.way_hits[result.way] += 1
            self._policies[set_index].touch(result.way)
            if write:
                line = self._lines[set_index][result.way]
                assert line is not None
                line.dirty = True
        else:
            self.misses += 1
        return result

    def fill(self, address: int, dirty: bool = False) -> AccessResult:
        """Install the block of ``address``, evicting if necessary."""
        probe = self.lookup(address)
        if probe.hit:
            # Another outstanding miss already refilled this block.
            assert probe.way is not None
            self._policies[probe.set_index].touch(probe.way)
            if dirty:
                line = self._lines[probe.set_index][probe.way]
                assert line is not None
                line.dirty = True
            return probe
        set_index = probe.set_index
        tag = tag_of(self.geometry, address)
        eligible = self._eligible[set_index]
        empty = [w for w in eligible if self._lines[set_index][w] is None]
        evicted_block: Optional[int] = None
        evicted_dirty = False
        if empty:
            # Spread cold fills across the empty ways (hash by block
            # address): always picking the lowest index would park the
            # long-lived hot blocks in the low ways and starve the high
            # ways of hits, which would bias every per-way-latency
            # experiment.
            way = empty[block_address(self.geometry, address) % len(empty)]
        else:
            way = self._policies[set_index].victim(eligible)
            victim = self._lines[set_index][way]
            assert victim is not None
            set_bits = self.geometry.num_sets.bit_length() - 1
            evicted_block = (victim.tag << set_bits) | set_index
            evicted_dirty = victim.dirty
            self.evictions += 1
        self._lines[set_index][way] = _Line(tag=tag, dirty=dirty)
        self._policies[set_index].touch(way)
        return AccessResult(
            hit=False,
            way=way,
            latency=self.config.latencies[way],
            set_index=set_index,
            evicted_block=evicted_block,
            evicted_dirty=evicted_dirty,
        )

    # ------------------------------------------------------------------
    def run_compiled(self, trace) -> Tuple[int, int, int]:
        """Replay a compiled trace's memory ops through this cache.

        Semantically identical to the per-access reference loop::

            for instr in trace.instructions():
                if instr.address is None:
                    continue
                write = instr.op is OpClass.STORE
                result = cache.access(instr.address, write=write)
                if not result.hit:
                    cache.fill(instr.address, dirty=write)

        but batched: the (set index, tag, write) columns come pre-split
        from :meth:`CompiledTrace.memory_ops`, attribute lookups are
        hoisted into locals, the common hit path is short-circuited, and
        no per-access :class:`AccessResult` objects are allocated —
        ``fill``'s re-probe is skipped because nothing can intervene
        between the missed lookup and the refill here. Statistics
        (hits/misses/evictions/way_hits) accumulate exactly as in the
        reference; the deltas are returned as ``(hits, misses,
        evictions)``.

        ``trace`` is any object with a
        ``memory_ops(geometry) -> (sets, tags, writes, count)`` method —
        in practice :class:`repro.workloads.compiled.CompiledTrace`.
        """
        set_indices, tags, writes, count = trace.memory_ops(self.geometry)
        lines = self._lines
        policies = self._policies
        eligible = self._eligible
        way_hits = self.way_hits
        make_line = _Line
        set_bits = self.geometry.num_sets.bit_length() - 1
        hits = 0
        misses = 0
        evictions = 0
        for i in range(count):
            set_index = set_indices[i]
            tag = tags[i]
            set_lines = lines[set_index]
            elig = eligible[set_index]
            hit_way = -1
            for way in elig:
                line = set_lines[way]
                if line is not None and line.tag == tag:
                    hit_way = way
                    break
            if hit_way >= 0:
                hits += 1
                way_hits[hit_way] += 1
                policies[set_index].touch(hit_way)
                if writes[i]:
                    set_lines[hit_way].dirty = True
                continue
            misses += 1
            empty = [w for w in elig if set_lines[w] is None]
            if empty:
                # Same cold-fill spread as fill(): hash by block address,
                # which is exactly (tag << set_bits) | set_index.
                way = empty[((tag << set_bits) | set_index) % len(empty)]
            else:
                way = policies[set_index].victim(elig)
                evictions += 1
            set_lines[way] = make_line(tag, bool(writes[i]))
            policies[set_index].touch(way)
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        return hits, misses, evictions

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
