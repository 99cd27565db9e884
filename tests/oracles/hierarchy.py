"""Memory hierarchy (paper Section 5.2 parameters).

The simulated processor's hierarchy:

* L1 instruction cache: 16 KB, 4-way, 64 B blocks, 2-cycle latency;
* L1 data cache: 16 KB, 4-way, 32 B blocks, 4-cycle latency — the cache
  the yield-aware schemes reconfigure;
* unified L2: 512 KB, 8-way, 128 B blocks, 25-cycle latency;
* memory: 350 cycles.

All caches are lockup-free: the hierarchy does not serialise misses; it
returns each access's total latency and lets the pipeline overlap them
(ports are modelled by the pipeline, MSHR-style merging by block address
is modelled here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from .setassoc import SetAssociativeCache, WayConfig, block_address
from repro.core import units
from repro.core.validation import require_positive
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["HierarchyConfig", "MemoryAccess", "MemoryHierarchy", "PAPER_HIERARCHY"]


@dataclass(frozen=True)
class HierarchyConfig:
    """Parameters of the simulated memory hierarchy."""

    l1i_geometry: CacheGeometry = CacheGeometry(16 * units.KB, 4, 64)
    l1i_latency: int = 2
    l1d_geometry: CacheGeometry = CacheGeometry(16 * units.KB, 4, 32)
    l1d_latency: int = BASE_ACCESS_CYCLES
    l2_geometry: CacheGeometry = CacheGeometry(512 * units.KB, 8, 128)
    l2_latency: int = 25
    memory_latency: int = 350
    mshr_entries: int = 16

    def __post_init__(self) -> None:
        require_positive(self.l1i_latency, "l1i_latency")
        require_positive(self.l1d_latency, "l1d_latency")
        require_positive(self.l2_latency, "l2_latency")
        require_positive(self.memory_latency, "memory_latency")
        require_positive(self.mshr_entries, "mshr_entries")


PAPER_HIERARCHY = HierarchyConfig()


@dataclass(frozen=True)
class MemoryAccess:
    """Timing outcome of one data access.

    Attributes
    ----------
    latency:
        Total cycles from access start to data available.
    l1_hit:
        True if the L1 data cache hit.
    l2_hit:
        True if the access was served from L2 (only meaningful on L1
        miss).
    way:
        The L1 way that hit (or that the refill filled).
    """

    latency: int
    l1_hit: bool
    l2_hit: bool
    way: Optional[int]


class MemoryHierarchy:
    """L1I + L1D + L2 + memory with yield-aware L1D configuration.

    Parameters
    ----------
    config:
        Hierarchy parameters.
    l1d_config:
        Yield-aware way configuration of the L1 data cache (latencies,
        disables). Defaults to the healthy all-4-cycle configuration.
    uniform_load_latency:
        When set (naive binning, Section 4.5), every L1 hit is served at
        this latency regardless of the way's own latency.
    """

    def __init__(
        self,
        config: HierarchyConfig = PAPER_HIERARCHY,
        l1d_config: Optional[WayConfig] = None,
        uniform_load_latency: Optional[int] = None,
    ) -> None:
        self.config = config
        self.l1i = SetAssociativeCache(config.l1i_geometry, name="L1I")
        self.l1d = SetAssociativeCache(
            config.l1d_geometry, config=l1d_config, name="L1D"
        )
        self.l2 = SetAssociativeCache(config.l2_geometry, name="L2")
        self.uniform_load_latency = uniform_load_latency
        # Outstanding L1D misses by block address -> completion latency
        # bookkeeping is the pipeline's job; here we only merge repeated
        # misses to the same block so they are not double-counted in L2.
        self._outstanding: Dict[int, int] = {}
        self.l2_accesses = 0
        self.memory_accesses = 0

    # ------------------------------------------------------------------
    def _l1_hit_latency(self, way_latency: int) -> int:
        if self.uniform_load_latency is not None:
            return self.uniform_load_latency
        return way_latency

    def data_access(self, address: int, write: bool = False) -> MemoryAccess:
        """Access the data hierarchy; fills on miss; returns total latency."""
        result = self.l1d.access(address, write=write)
        if result.hit:
            assert result.latency is not None
            return MemoryAccess(
                latency=self._l1_hit_latency(result.latency),
                l1_hit=True,
                l2_hit=False,
                way=result.way,
            )

        # L1 miss: check the L2 (allocating both levels on the way back).
        block = block_address(self.l1d.geometry, address)
        l2_result = self.l2.access(address, write=False)
        self.l2_accesses += 1
        if l2_result.hit:
            beyond = self.config.l2_latency
            l2_hit = True
        else:
            self.l2.fill(address)
            self.memory_accesses += 1
            beyond = self.config.l2_latency + self.config.memory_latency
            l2_hit = False
        fill = self.l1d.fill(address, dirty=write)
        if fill.evicted_dirty and fill.evicted_block is not None:
            # Write the dirty victim back into L2 (state only; the
            # writeback bandwidth is not separately timed).
            offset_bits = self.l1d.geometry.block_bytes.bit_length() - 1
            self.l2.access(fill.evicted_block << offset_bits, write=True)
        base = self.l1d.config.latencies[fill.way] if fill.way is not None else None
        l1_portion = self._l1_hit_latency(
            base if base is not None else self.config.l1d_latency
        )
        return MemoryAccess(
            latency=l1_portion + beyond,
            l1_hit=False,
            l2_hit=l2_hit,
            way=fill.way,
        )

    def instruction_fetch(self, address: int) -> int:
        """Fetch latency (cycles) for the instruction block of ``address``."""
        result = self.l1i.access(address, write=False)
        if result.hit:
            return self.config.l1i_latency
        l2_result = self.l2.access(address, write=False)
        self.l2_accesses += 1
        if l2_result.hit:
            beyond = self.config.l2_latency
        else:
            self.l2.fill(address)
            self.memory_accesses += 1
            beyond = self.config.l2_latency + self.config.memory_latency
        self.l1i.fill(address)
        return self.config.l1i_latency + beyond

    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, float]:
        """Flat counter snapshot for reports and tests."""
        return {
            "l1i_accesses": self.l1i.accesses,
            "l1i_miss_rate": self.l1i.miss_rate,
            "l1d_accesses": self.l1d.accesses,
            "l1d_misses": self.l1d.misses,
            "l1d_miss_rate": self.l1d.miss_rate,
            "l2_accesses": self.l2_accesses,
            "l2_miss_rate": self.l2.miss_rate,
            "memory_accesses": self.memory_accesses,
        }
