"""Functional cache models for the pipeline simulator.

Where :mod:`repro.circuit` models *electrical* behaviour (delay, leakage),
this subpackage models *architectural* behaviour: hits, misses,
replacement, per-way access latencies, disabled ways, and the H-YAPD
address remapping. The pipeline simulator (:mod:`repro.uarch`) drives a
:class:`~repro.cache.hierarchy.MemoryHierarchy` built from these models.

* :mod:`repro.cache.geometry` — sets/ways/blocks arithmetic.
* :mod:`repro.cache.setassoc` — the set-associative LRU cache (the
  paper's policy) with way latencies, way disable, and H-YAPD
  horizontal-way disable.
* :mod:`repro.cache.hierarchy` — L1I + L1D + unified L2 + memory, with
  the paper's Section 5.2 parameters as defaults.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import AccessResult, SetAssociativeCache, WayConfig
from repro.cache.hierarchy import (
    HierarchyConfig,
    MemoryAccess,
    MemoryHierarchy,
    PAPER_HIERARCHY,
)

__all__ = [
    "CacheGeometry",
    "AccessResult",
    "SetAssociativeCache",
    "WayConfig",
    "HierarchyConfig",
    "MemoryAccess",
    "MemoryHierarchy",
    "PAPER_HIERARCHY",
]
