"""Horizontal Yield-Aware Power-Down (paper Section 4.2).

H-YAPD powers down one *horizontal* band — the same physical row region of
every way — instead of a vertical way. Because intra-die variation is
spatially correlated, the paths that violate the delay limit tend to sit
in the same band of every way, so removing a single band can repair
multi-way delay violations that YAPD (limited to one whole way) cannot.
The modified post-decoders guarantee each address still maps to exactly
``ways - 1`` candidate ways, so the hit/miss behaviour equals YAPD's.

Leakage accounting: gating a band removes that band's cell array in every
way, but the paper notes parts of the decoders, precharge and sense
circuits cannot be turned off completely — modelled by
``peripheral_save_fraction`` of the band's proportional share of the
peripheral leakage.

H-YAPD must be applied to chips evaluated with the H-YAPD cache
organisation (its 2.5% slower access paths); the analysis layer takes care
of that pairing.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.columnar import left_sum
from repro.core.errors import ConfigurationError
from repro.core.validation import require_in_range
from repro.schemes.base import Decisions, Scheme
from repro.yieldmodel.classify import ChipColumns
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["HYAPD"]


def delays_without_band(
    chips: ChipColumns, needed: np.ndarray
) -> np.ndarray:
    """``[i, w, b]``: way ``w``'s delay on chip ``i`` with band ``b``
    powered down, its slowest other band (a one-band cache has none: an
    error for the chips ``needed``)."""
    band_delays = chips.circuits.band_delays
    bands = band_delays.shape[2]
    if bands < 2:
        if needed.any():
            raise ConfigurationError(
                "cannot power down the only band of a way"
            )
        return band_delays
    out = np.empty_like(band_delays)
    for band in range(bands):
        others = [b for b in range(bands) if b != band]
        out[:, :, band] = band_delays[:, :, others].max(axis=2)
    return out


def leakage_without_band(
    chips: ChipColumns, peripheral_save_fraction: float
) -> np.ndarray:
    """``[i, b]``: chip ``i``'s leakage with band ``b`` gated off,
    ``(total - band array) - fraction * peripheral / bands``."""
    circuits = chips.circuits
    saving = (
        peripheral_save_fraction
        * left_sum(circuits.peripheral_leakage, 1)
        / circuits.num_bands
    )
    band_array = left_sum(circuits.band_leakage, 1)  # summed over ways
    return (chips.total_leakage[:, None] - band_array) - saving[:, None]


def cheapest_band(feasible: np.ndarray, leakage: np.ndarray) -> np.ndarray:
    """Per chip, the first feasible band with strictly the lowest
    leakage (-1: none is feasible)."""
    best = np.where(feasible, leakage, np.inf).argmin(axis=1)
    return np.where(feasible.any(axis=1), best, -1)


class HYAPD(Scheme):
    """Power down one horizontal band across all ways.

    Parameters
    ----------
    peripheral_save_fraction:
        Fraction of a band's proportional share of way-peripheral leakage
        that gating the band actually saves (the rest cannot be turned
        off; paper Section 4.2).
    """

    name = "H-YAPD"

    def __init__(self, peripheral_save_fraction: float = 0.5) -> None:
        require_in_range(
            peripheral_save_fraction, 0.0, 1.0, "peripheral_save_fraction"
        )
        self.peripheral_save_fraction = peripheral_save_fraction

    def decide(self, chips: ChipColumns) -> Decisions:
        limits = chips.constraints
        leakage = leakage_without_band(chips, self.peripheral_save_fraction)
        feasible = (
            delays_without_band(chips, ~chips.passes) <= limits.delay_limit
        ).all(axis=1) & (leakage <= limits.leakage_limit)
        band = cheapest_band(feasible, leakage)
        rescued = ~chips.passes & (band >= 0)
        return Decisions.of(
            chips,
            chips.passes | rescued,
            np.where(rescued[:, None], BASE_ACCESS_CYCLES, chips.way_cycles),
            disabled_band=np.where(rescued, band, -1),
        )
