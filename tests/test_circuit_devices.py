"""Tests for the MOSFET model: roll-off, drive, leakage, delays."""

import pytest
from hypothesis import given, strategies as st

from oracles import circuit as devices
from repro.circuit.technology import TECH45
from repro.core import units
from repro.core.errors import ConfigurationError
from repro.variation.parameters import TABLE1

NOMINAL = TABLE1.nominal()


class TestEffectiveThreshold:
    def test_nominal_has_no_rolloff(self):
        assert devices.effective_threshold(NOMINAL, TECH45) == pytest.approx(
            NOMINAL.vt
        )

    def test_shorter_channel_lowers_vt(self):
        short = NOMINAL._replace(lgate=NOMINAL.lgate * 0.9)
        assert devices.effective_threshold(short, TECH45) < NOMINAL.vt

    def test_longer_channel_raises_vt(self):
        long_ = NOMINAL._replace(lgate=NOMINAL.lgate * 1.1)
        assert devices.effective_threshold(long_, TECH45) > NOMINAL.vt

    def test_rolloff_magnitude(self):
        """A small excursion (2%) stays above the floor and drops Vt by
        exactly vt_rolloff * fractional shortfall."""
        short = NOMINAL._replace(lgate=NOMINAL.lgate * 0.98)
        drop = NOMINAL.vt - devices.effective_threshold(short, TECH45)
        assert drop == pytest.approx(TECH45.vt_rolloff * 0.02, rel=1e-6)

    def test_extreme_rolloff_hits_floor(self):
        """A deep excursion saturates at the 20 mV floor instead of going
        negative."""
        short = NOMINAL._replace(lgate=NOMINAL.lgate * 0.9)
        assert devices.effective_threshold(short, TECH45) == pytest.approx(0.02)

    def test_floor(self):
        tiny = NOMINAL._replace(lgate=NOMINAL.lgate * 0.5, vt=0.05)
        assert devices.effective_threshold(tiny, TECH45) >= 0.02


class TestDriveCurrent:
    def test_positive(self):
        assert devices.drive_current(1 * units.UM, NOMINAL, TECH45) > 0

    def test_scales_with_width(self):
        one = devices.drive_current(1 * units.UM, NOMINAL, TECH45)
        two = devices.drive_current(2 * units.UM, NOMINAL, TECH45)
        assert two == pytest.approx(2 * one)

    def test_low_vt_drives_harder(self):
        fast = NOMINAL._replace(vt=NOMINAL.vt * 0.8)
        assert devices.drive_current(
            1e-6, fast, TECH45
        ) > devices.drive_current(1e-6, NOMINAL, TECH45)

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            devices.drive_current(0.0, NOMINAL, TECH45)

    def test_alpha_power_exponent(self):
        """Doubling overdrive raises current by 2**alpha."""
        tech = TECH45.replace(vt_rolloff=0.0)
        low = NOMINAL._replace(vt=tech.vdd - 0.2)
        high = NOMINAL._replace(vt=tech.vdd - 0.4)
        ratio = devices.drive_current(1e-6, high, tech) / devices.drive_current(
            1e-6, low, tech
        )
        assert ratio == pytest.approx(2**tech.alpha, rel=1e-6)


class TestSubthresholdLeakage:
    def test_exponential_in_vt(self):
        """One subthreshold swing of Vt = 10x leakage."""
        lower = NOMINAL._replace(vt=NOMINAL.vt - TECH45.subthreshold_swing)
        ratio = devices.subthreshold_current(
            1e-6, lower, TECH45
        ) / devices.subthreshold_current(1e-6, NOMINAL, TECH45)
        assert ratio == pytest.approx(10.0, rel=1e-6)

    def test_paper_cited_l_sensitivity(self):
        """Paper Section 1: ~10% channel-length reduction gives a multi-x
        subthreshold leakage increase (it cites 3x at 65 nm)."""
        short = NOMINAL._replace(lgate=NOMINAL.lgate * 0.9)
        ratio = devices.subthreshold_current(
            1e-6, short, TECH45
        ) / devices.subthreshold_current(1e-6, NOMINAL, TECH45)
        assert ratio > 3.0

    def test_paper_cited_vt_sensitivity(self):
        """A 3-sigma Vt + L excursion produces the 5-10x leakage factors
        the paper's Section 2 cites (gate-length roll-off carries most of
        the threshold swing in the calibrated model)."""
        low = NOMINAL._replace(
            vt=NOMINAL.vt * (1 - 0.18), lgate=NOMINAL.lgate * 0.97
        )
        ratio = devices.subthreshold_current(
            1e-6, low, TECH45
        ) / devices.subthreshold_current(1e-6, NOMINAL, TECH45)
        assert ratio > 5.0

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            devices.subthreshold_current(-1.0, NOMINAL, TECH45)


class TestStageDelay:
    def test_delay_positive_and_linear_in_cap(self):
        d1 = devices.stage_delay(1e-6, 1e-15, NOMINAL, TECH45)
        d2 = devices.stage_delay(1e-6, 2e-15, NOMINAL, TECH45)
        assert d1 > 0
        assert d2 == pytest.approx(2 * d1)

    def test_wider_driver_is_faster(self):
        narrow = devices.stage_delay(1e-6, 1e-15, NOMINAL, TECH45)
        wide = devices.stage_delay(2e-6, 1e-15, NOMINAL, TECH45)
        assert wide == pytest.approx(narrow / 2)

    def test_slow_corner_is_slower(self):
        slow = NOMINAL._replace(
            vt=NOMINAL.vt * 1.18, lgate=NOMINAL.lgate * 1.1
        )
        assert devices.stage_delay(1e-6, 1e-15, slow, TECH45) > devices.stage_delay(
            1e-6, 1e-15, NOMINAL, TECH45
        )

    def test_rejects_negative_cap(self):
        with pytest.raises(ConfigurationError):
            devices.stage_delay(1e-6, -1e-15, NOMINAL, TECH45)

    @given(st.floats(min_value=0.9, max_value=1.1))
    def test_delay_monotone_in_lgate(self, scale):
        """Longer channel (higher Vt via roll-off, lower W/L) = slower."""
        base = devices.stage_delay(1e-6, 1e-15, NOMINAL, TECH45)
        varied = devices.stage_delay(
            1e-6, 1e-15, NOMINAL._replace(lgate=NOMINAL.lgate * scale), TECH45
        )
        if scale > 1.0:
            assert varied >= base
        elif scale < 1.0:
            assert varied <= base


class TestDelayLeakageTradeoff:
    def test_fast_devices_leak(self):
        """The inverse correlation that drives Figure 8."""
        fast = NOMINAL._replace(lgate=NOMINAL.lgate * 0.93, vt=NOMINAL.vt * 0.9)
        assert devices.stage_delay(1e-6, 1e-15, fast, TECH45) < devices.stage_delay(
            1e-6, 1e-15, NOMINAL, TECH45
        )
        assert devices.subthreshold_current(
            1e-6, fast, TECH45
        ) > devices.subthreshold_current(1e-6, NOMINAL, TECH45)
