"""Reference LRU replacement policy: a frozen copy of ``LRUPolicy``.

The oracle cache keeps one instance per set, exactly as the production
cache did before it folded LRU into per-set recency lists. Only the base
class differs from the original: the policy interface it implemented
left ``src/`` with the other replacement policies.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.errors import ConfigurationError, SimulationError

__all__ = ["LRUPolicy"]

#: Raised when a victim is requested from a set with no usable ways.
#: H-YAPD band disables on a cache with fewer ways than bands can mask
#: *every* way of an address group; that is a configuration problem (and
#: SetAssociativeCache rejects it at construction), so policies report it
#: as one instead of dying with an IndexError deep in a simulation.
_NO_CANDIDATES = (
    "no eligible ways to choose a victim from — the way configuration "
    "leaves this set with zero usable ways (an H-YAPD band disable can "
    "mask every way of an address group when the cache has fewer ways "
    "than bands)"
)


class LRUPolicy:
    """True least-recently-used replacement state of one cache set."""

    def __init__(self) -> None:
        self._order: List[int] = []  # most recent last

    def touch(self, way: int) -> None:
        if way in self._order:
            self._order.remove(way)
        self._order.append(way)

    def victim(self, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ConfigurationError(_NO_CANDIDATES)
        # Least recently used eligible way; ways never touched are oldest.
        untouched = [w for w in candidates if w not in self._order]
        if untouched:
            return untouched[0]
        for way in self._order:
            if way in candidates:
                return way
        raise SimulationError("LRU state inconsistent with candidates")
