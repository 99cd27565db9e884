"""Tests for YAPD, H-YAPD, VACA, Hybrid and binning schemes."""

import pytest

from repro.schemes import (
    HYAPD,
    Hybrid,
    HybridHorizontal,
    NaiveBinning,
    VACA,
    YAPD,
)
from repro.core.errors import ConfigurationError
from tests.conftest import configuration, decision_row, make_chip


def _row(scheme, chip):
    """``scheme``'s decision for the one-row ``chip``."""
    return decision_row(scheme.decide(chip))


class TestYAPD:
    def test_passing_chip_untouched(self, healthy_chip):
        outcome = _row(YAPD(), healthy_chip)
        assert outcome.saved
        assert outcome.disabled_way is None

    def test_one_slow_way_disabled(self, one_slow_way_chip):
        outcome = _row(YAPD(), one_slow_way_chip)
        assert outcome.saved
        assert outcome.disabled_way == 3
        assert outcome.way_cycles == (4, 4, 4, None)
        assert configuration(one_slow_way_chip) == "3-1-0"

    def test_six_plus_way_also_disabled(self):
        case = make_chip([0.9, 0.9, 0.9, 1.8])
        outcome = _row(YAPD(), case)
        assert outcome.saved
        assert outcome.disabled_way == 3

    def test_two_slow_ways_lost(self):
        case = make_chip([0.9, 0.9, 1.2, 1.2])
        outcome = _row(YAPD(), case)
        assert not outcome.saved

    def test_leakage_disables_leakiest(self):
        case = make_chip([0.9] * 4, way_leakages=[0.2, 0.2, 0.2, 0.5])
        outcome = _row(YAPD(), case)
        assert outcome.saved
        assert outcome.disabled_way == 3

    def test_leakage_unfixable_by_one_way(self):
        case = make_chip([0.9] * 4, way_leakages=[0.5, 0.5, 0.5, 0.5])
        outcome = _row(YAPD(), case)
        assert not outcome.saved

    def test_leakage_and_delay_same_way(self):
        """The slow way is also the leaky one: one disable fixes both."""
        case = make_chip(
            [0.9, 0.9, 0.9, 1.2], way_leakages=[0.2, 0.2, 0.2, 0.6]
        )
        outcome = _row(YAPD(), case)
        assert outcome.saved
        assert outcome.disabled_way == 3

    def test_leakage_and_delay_different_ways(self):
        """Slow way 3, leaky way 0, both must go -> lost."""
        case = make_chip(
            [1.2, 0.9, 0.9, 0.9], way_leakages=[0.2, 0.2, 0.2, 0.9]
        )
        outcome = _row(YAPD(), case)
        assert not outcome.saved


class TestVACA:
    def test_five_cycle_ways_tolerated(self):
        case = make_chip([1.2, 1.2, 0.9, 1.1])
        outcome = _row(VACA(), case)
        assert outcome.saved
        assert outcome.way_cycles == (5, 5, 4, 5)
        assert outcome.disabled_way is None

    def test_six_cycle_way_lost(self):
        case = make_chip([0.9, 0.9, 0.9, 1.3])
        outcome = _row(VACA(), case)
        assert not outcome.saved

    def test_leakage_lost(self, leaky_chip):
        outcome = _row(VACA(), leaky_chip)
        assert not outcome.saved

    def test_passing_chip(self, healthy_chip):
        assert _row(VACA(), healthy_chip).saved


class TestHYAPD:
    def _band_localised_chip(self):
        """Way 0 violates only through band 3."""
        profiles = [
            [0.9, 0.9, 0.9, 1.2],
            [0.85, 0.9, 0.9, 0.95],
            [0.85, 0.9, 0.9, 0.95],
            [0.85, 0.9, 0.9, 0.95],
        ]
        return make_chip([1.2, 0.95, 0.95, 0.95], band_profiles=profiles)

    def test_band_localised_violation_fixed(self):
        outcome = _row(HYAPD(), self._band_localised_chip())
        assert outcome.saved
        assert outcome.disabled_band == 3
        assert outcome.way_cycles == (4, 4, 4, 4)

    def test_whole_way_shift_unfixable(self):
        """Every band of way 0 violates: no single band repairs it."""
        profiles = [
            [1.2, 1.2, 1.2, 1.2],
            [0.9] * 4,
            [0.9] * 4,
            [0.9] * 4,
        ]
        case = make_chip([1.2, 0.9, 0.9, 0.9], band_profiles=profiles)
        outcome = _row(HYAPD(), case)
        assert not outcome.saved

    def test_multi_way_aligned_band_fixed(self):
        """The same band is critical in all ways: H-YAPD repairs a
        multi-way violation YAPD cannot (paper Section 4.2)."""
        profiles = [[0.9, 0.9, 0.9, 1.15] for _ in range(4)]
        case = make_chip([1.15] * 4, band_profiles=profiles)
        assert not _row(YAPD(), case).saved
        outcome = _row(HYAPD(), case)
        assert outcome.saved
        assert outcome.disabled_band == 3

    def test_leakage_band_disable(self):
        """Gating a band across ways removes ~1/4 of array leakage."""
        case = make_chip([0.9] * 4, way_leakages=[0.3, 0.3, 0.3, 0.3])
        assert case.leakage_violation[0]
        outcome = _row(HYAPD(peripheral_save_fraction=0.5), case)
        # each way: periph 0.03, bands 0.0675 each; disabling one band
        # saves 4*0.0675 + 0.5*0.12/4 = 0.285 -> total 0.915 <= 1.0
        assert outcome.saved
        assert outcome.disabled_band is not None

    def test_peripheral_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            HYAPD(peripheral_save_fraction=1.5)


class TestHybrid:
    def test_keeps_ways_on_when_possible(self, one_slow_way_chip):
        """Paper: a way is turned off only if necessary; 3-1-0 runs as
        VACA."""
        outcome = _row(Hybrid(), one_slow_way_chip)
        assert outcome.saved
        assert outcome.disabled_way is None
        assert outcome.way_cycles == (4, 4, 4, 5)

    def test_disables_single_six_plus_way(self):
        case = make_chip([0.9, 1.1, 0.9, 1.4])
        outcome = _row(Hybrid(), case)
        assert outcome.saved
        assert outcome.disabled_way == 3
        assert outcome.way_cycles == (4, 5, 4, None)

    def test_two_six_plus_ways_lost(self):
        case = make_chip([0.9, 0.9, 1.4, 1.4])
        assert not _row(Hybrid(), case).saved

    def test_leakage_uses_power_down(self, leaky_chip):
        outcome = _row(Hybrid(), leaky_chip)
        assert outcome.saved
        assert outcome.disabled_way == 3

    def test_four_five_cycle_ways_saved(self):
        """0-4-0 is saved by Hybrid (and VACA) but not YAPD."""
        case = make_chip([1.2, 1.2, 1.2, 1.2])
        assert _row(Hybrid(), case).saved
        assert _row(VACA(), case).saved
        assert not _row(YAPD(), case).saved

    def test_leakage_plus_slow_way(self):
        """Leaky chip with a separate 5-cycle way: Hybrid disables the
        leaky way and serves the slow one at 5 cycles; YAPD, forced to
        disable the slow way, cannot also fix the leakage."""
        case = make_chip(
            [1.2, 0.9, 0.9, 0.9], way_leakages=[0.2, 0.3, 0.3, 0.5]
        )
        hybrid = _row(Hybrid(), case)
        assert hybrid.saved
        assert hybrid.disabled_way == 3
        assert not _row(YAPD(), case).saved


class TestHybridHorizontal:
    def test_vaca_mode(self, one_slow_way_chip):
        outcome = _row(HybridHorizontal(), one_slow_way_chip)
        assert outcome.saved
        assert outcome.disabled_band is None

    def test_band_disable_for_six_plus(self):
        profiles = [
            [0.9, 0.9, 0.9, 1.4],
            [0.9] * 4,
            [0.9] * 4,
            [0.9] * 4,
        ]
        case = make_chip([1.4, 0.9, 0.9, 0.9], band_profiles=profiles)
        outcome = _row(HybridHorizontal(), case)
        assert outcome.saved
        assert outcome.disabled_band == 3


class TestNaiveBinning:
    def test_rebins_five_cycle_chip(self):
        case = make_chip([1.2, 1.1, 0.9, 1.2])
        outcome = _row(NaiveBinning(5), case)
        assert outcome.saved
        assert outcome.way_cycles == (5, 5, 5, 5)

    def test_six_cycle_chip_needs_six_bin(self):
        case = make_chip([0.9, 0.9, 0.9, 1.4])
        assert not _row(NaiveBinning(5), case).saved
        outcome = _row(NaiveBinning(6), case)
        assert outcome.saved
        assert outcome.way_cycles == (6, 6, 6, 6)

    def test_leakage_not_fixable(self, leaky_chip):
        assert not _row(NaiveBinning(6), leaky_chip).saved

    def test_rejects_sub_base_target(self):
        with pytest.raises(ConfigurationError):
            NaiveBinning(3)


class TestOutcomeInvariants:
    def test_saved_outcomes_have_cycles(self, one_slow_way_chip):
        for scheme in (YAPD(), VACA(), Hybrid(), NaiveBinning(5)):
            outcome = _row(scheme, one_slow_way_chip)
            if outcome.saved:
                assert outcome.way_cycles is not None
                assert any(c is not None for c in outcome.way_cycles)

    def test_max_cycles(self, one_slow_way_chip):
        outcome = _row(VACA(), one_slow_way_chip)
        assert max(outcome.way_cycles) == 5
