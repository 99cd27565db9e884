"""Cache geometry arithmetic (sets, ways, blocks)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import (
    require_divides,
    require_positive,
    require_power_of_two,
)

__all__ = ["CacheGeometry"]


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/block arithmetic of one cache level.

    Attributes
    ----------
    capacity_bytes:
        Total data capacity.
    associativity:
        Number of ways.
    block_bytes:
        Cache block (line) size.
    """

    capacity_bytes: int
    associativity: int
    block_bytes: int

    def __post_init__(self) -> None:
        require_power_of_two(self.capacity_bytes, "capacity_bytes")
        require_positive(self.associativity, "associativity")
        require_power_of_two(self.block_bytes, "block_bytes")
        require_divides(
            self.associativity * self.block_bytes,
            self.capacity_bytes,
            "capacity",
        )
        require_power_of_two(self.num_sets, "num_sets")

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.capacity_bytes // (self.associativity * self.block_bytes)
