"""Scheme interface and decisions.

:meth:`Scheme.decide` decides every chip of a population's
:class:`~repro.yieldmodel.classify.ChipColumns` at once, as
:class:`Decisions` (one row per chip). A row carries the post-rescue
cache shape — which way or horizontal band was powered down and the
access cycles of every surviving way — which is exactly what the
functional cache model and the pipeline simulator need to measure the
performance cost of the rescue.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Optional

import numpy as np

from repro.yieldmodel.classify import ChipColumns

__all__ = ["Decisions", "Scheme"]


class Decisions(NamedTuple):
    """Row ``i`` is what a scheme decides for chip ``i``.

    ``way_cycles`` uses 0 for a disabled way and ``disabled_way``/
    ``disabled_band`` -1 for none; they matter only where ``saved``. At
    most one of a saved row's way and band is disabled, and a passing
    chip is saved unchanged.
    """

    saved: np.ndarray  # (C,) bool
    way_cycles: np.ndarray  # (C, W) int
    disabled_way: np.ndarray  # (C,) int
    disabled_band: np.ndarray  # (C,) int

    @classmethod
    def of(
        cls,
        chips: ChipColumns,
        saved: np.ndarray,
        way_cycles: Optional[np.ndarray] = None,
        disabled_way: Optional[np.ndarray] = None,
        disabled_band: Optional[np.ndarray] = None,
    ) -> "Decisions":
        """Decisions defaulting to the unchanged cycles and no power-down."""
        none = np.full(chips.count, -1)
        return cls(
            saved=saved,
            way_cycles=chips.way_cycles if way_cycles is None else way_cycles,
            disabled_way=none if disabled_way is None else disabled_way,
            disabled_band=none if disabled_band is None else disabled_band,
        )


class Scheme(abc.ABC):
    """A yield-aware rescue scheme."""

    #: Display name used in tables; subclasses override.
    name: str = "scheme"

    @abc.abstractmethod
    def decide(self, chips: ChipColumns) -> Decisions:
        """Decide every chip of ``chips`` at once; never mutates them."""
