"""Hybrid schemes (paper Section 4.4): VACA plus one power-down.

The Hybrid cache implements both the load-bypass buffers of VACA and the
power-down machinery of YAPD (or H-YAPD). The paper's fixed policy keeps
ways powered as long as possible: a way (or horizontal band) is disabled
only when its delay exceeds 5 cycles or the cache violates the leakage
limit, and — like YAPD — at most one unit may ever be disabled.
"""

from __future__ import annotations

import numpy as np

from repro.schemes.base import Decisions, Scheme
from repro.schemes.hyapd import (
    HYAPD,
    cheapest_band,
    delays_without_band,
    leakage_without_band,
)
from repro.schemes.vaca import served_within
from repro.yieldmodel.classify import (
    ChipColumns,
    VACA_MAX_CYCLES,
    cycles_for_delays,
)

__all__ = ["Hybrid", "HybridHorizontal"]


class Hybrid(Scheme):
    """VACA latencies plus at most one vertical way power-down."""

    name = "Hybrid"

    def decide(self, chips: ChipColumns) -> Decisions:
        # VACA mode first: keep everything powered if 5 cycles suffice.
        vaca = served_within(chips, VACA_MAX_CYCLES)
        # Otherwise disable one way: the single way needing 6+ cycles,
        # then the leakiest way when leakage is violated. Either must
        # leave every other way at <= 5 cycles and the leakage in limit.
        too_slow = chips.way_cycles > VACA_MAX_CYCLES
        slow_count = too_slow.sum(axis=1)
        rows = np.arange(chips.count)
        limit = chips.constraints.leakage_limit
        slow_way = too_slow.argmax(axis=1)
        slow_fix = (slow_count == 1) & (
            chips.way_gated_leakage[rows, slow_way] <= limit
        )
        leakiest = chips.leakiest_way
        leak_fix = (
            chips.leakage_violation
            & (slow_count - too_slow[rows, leakiest] == 0)
            & (chips.way_gated_leakage[rows, leakiest] <= limit)
        )
        target = np.where(slow_fix, slow_way, leakiest)
        disabled = ~vaca & (slow_fix | leak_fix)
        way_cycles = chips.way_cycles.copy()
        way_cycles[rows[disabled], target[disabled]] = 0
        return Decisions.of(
            chips,
            vaca | disabled,
            way_cycles,
            np.where(disabled, target, -1),
        )


class HybridHorizontal(Scheme):
    """VACA latencies plus at most one horizontal band power-down.

    Parameters
    ----------
    peripheral_save_fraction:
        See :class:`~repro.schemes.hyapd.HYAPD`.
    """

    name = "Hybrid-H"

    def __init__(self, peripheral_save_fraction: float = 0.5) -> None:
        self._hyapd = HYAPD(peripheral_save_fraction)

    def decide(self, chips: ChipColumns) -> Decisions:
        vaca = served_within(chips, VACA_MAX_CYCLES)
        cycles = cycles_for_delays(
            delays_without_band(chips, ~vaca), chips.constraints
        )
        leakage = leakage_without_band(
            chips, self._hyapd.peripheral_save_fraction
        )
        feasible = (cycles <= VACA_MAX_CYCLES).all(axis=1) & (
            leakage <= chips.constraints.leakage_limit
        )
        band = cheapest_band(feasible, leakage)
        disabled = ~vaca & (band >= 0)
        rows = np.flatnonzero(disabled)
        way_cycles = chips.way_cycles.copy()
        way_cycles[rows] = cycles[rows, :, band[rows]]
        return Decisions.of(
            chips,
            vaca | disabled,
            way_cycles,
            disabled_band=np.where(disabled, band, -1),
        )
