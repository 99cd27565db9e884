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

H-YAPD must be applied to a :class:`ChipCase` built from the H-YAPD cache
organisation (its 2.5% slower access paths); the analysis layer takes care
of that pairing.
"""

from __future__ import annotations

from typing import Optional

from repro.core.validation import require_in_range
from repro.schemes.base import RescueOutcome, Scheme
from repro.yieldmodel.classify import ChipCase
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["HYAPD"]


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

    # ------------------------------------------------------------------
    def leakage_after_disabling_band(self, case: ChipCase, band: int) -> float:
        """Total leakage (W) with horizontal band ``band`` gated off."""
        circuit = case.circuit
        array_saving = circuit.band_array_leakage(band)
        peripheral_saving = (
            self.peripheral_save_fraction
            * circuit.total_peripheral_leakage()
            / circuit.num_bands
        )
        return case.total_leakage - array_saving - peripheral_saving

    def _band_feasible(self, case: ChipCase, band: int) -> Optional[float]:
        """Post-rescue leakage if gating ``band`` satisfies everything."""
        delays_ok = all(
            case.constraints.meets_delay(way.delay_without_band(band))
            for way in case.circuit.ways
        )
        if not delays_ok:
            return None
        leakage = self.leakage_after_disabling_band(case, band)
        if not case.constraints.meets_leakage(leakage):
            return None
        return leakage

    # ------------------------------------------------------------------
    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)

        best_band: Optional[int] = None
        best_leakage = float("inf")
        for band in range(case.circuit.num_bands):
            leakage = self._band_feasible(case, band)
            if leakage is not None and leakage < best_leakage:
                best_band, best_leakage = band, leakage

        if best_band is None:
            return self._lost(case, "no single horizontal band repairs the chip")

        way_cycles = tuple(
            BASE_ACCESS_CYCLES for _ in range(case.circuit.num_ways)
        )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            disabled_band=best_band,
            way_cycles=way_cycles,
            note=f"disabled horizontal band {best_band}",
        )
