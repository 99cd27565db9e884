"""Tests for wire parasitics and Elmore delay."""

import pytest

from oracles import circuit as interconnect
from repro.circuit.technology import TECH45
from repro.core.errors import ConfigurationError
from repro.variation.parameters import TABLE1

NOMINAL = TABLE1.nominal()


class TestResistance:
    def test_positive(self):
        assert interconnect.wire_resistance_per_m(NOMINAL, TECH45) > 0

    def test_narrow_line_resists_more(self):
        narrow = NOMINAL._replace(metal_width=NOMINAL.metal_width * 0.67)
        assert interconnect.wire_resistance_per_m(
            narrow, TECH45
        ) > interconnect.wire_resistance_per_m(NOMINAL, TECH45)

    def test_thin_metal_resists_more(self):
        thin = NOMINAL._replace(metal_thickness=NOMINAL.metal_thickness * 0.67)
        assert interconnect.wire_resistance_per_m(
            thin, TECH45
        ) > interconnect.wire_resistance_per_m(NOMINAL, TECH45)

    def test_reciprocal_area(self):
        half = NOMINAL._replace(metal_width=NOMINAL.metal_width / 2)
        assert interconnect.wire_resistance_per_m(half, TECH45) == pytest.approx(
            2 * interconnect.wire_resistance_per_m(NOMINAL, TECH45)
        )

    def test_length_scaling(self):
        assert interconnect.wire_resistance(
            2e-4, NOMINAL, TECH45
        ) == pytest.approx(2 * interconnect.wire_resistance(1e-4, NOMINAL, TECH45))

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            interconnect.wire_resistance(-1.0, NOMINAL, TECH45)


class TestCapacitance:
    def test_thin_dielectric_raises_ground_cap(self):
        thin = NOMINAL._replace(ild_thickness=NOMINAL.ild_thickness * 0.65)
        assert interconnect.wire_capacitance_per_m(
            thin, TECH45
        ) > interconnect.wire_capacitance_per_m(NOMINAL, TECH45)

    def test_wide_line_raises_cap_two_ways(self):
        """Wider lines add area cap AND shrink spacing (coupling up) —
        the paper's point that line-space is not independent."""
        wide = NOMINAL._replace(metal_width=NOMINAL.metal_width * 1.33)
        assert interconnect.wire_capacitance_per_m(
            wide, TECH45
        ) > interconnect.wire_capacitance_per_m(NOMINAL, TECH45)

    def test_thick_metal_raises_coupling(self):
        thick = NOMINAL._replace(metal_thickness=NOMINAL.metal_thickness * 1.33)
        assert interconnect.wire_capacitance_per_m(
            thick, TECH45
        ) > interconnect.wire_capacitance_per_m(NOMINAL, TECH45)

    def test_spacing_floor_prevents_blowup(self):
        huge = NOMINAL._replace(metal_width=TECH45.wire_pitch * 1.5)
        value = interconnect.wire_capacitance_per_m(huge, TECH45)
        assert value < 1e-8  # finite, no division blow-up

    def test_plausible_magnitude(self):
        """Tens to a few hundred pF/m at 45 nm geometries."""
        value = interconnect.wire_capacitance_per_m(NOMINAL, TECH45)
        assert 2e-11 < value < 5e-10


class TestElmore:
    def test_zero_length_is_driver_only(self):
        delay = interconnect.elmore_delay(1000.0, 0.0, NOMINAL, TECH45, 1e-15)
        assert delay == pytest.approx(0.69 * 1000.0 * 1e-15)

    def test_monotone_in_length(self):
        short = interconnect.elmore_delay(1000.0, 50e-6, NOMINAL, TECH45, 1e-15)
        long_ = interconnect.elmore_delay(1000.0, 100e-6, NOMINAL, TECH45, 1e-15)
        assert long_ > short

    def test_superlinear_in_length(self):
        """Distributed RC grows quadratically with length."""
        d1 = interconnect.elmore_delay(0.0, 100e-6, NOMINAL, TECH45, 0.0)
        d2 = interconnect.elmore_delay(0.0, 200e-6, NOMINAL, TECH45, 0.0)
        assert d2 == pytest.approx(4 * d1, rel=1e-6)

    def test_monotone_in_driver_resistance(self):
        weak = interconnect.elmore_delay(2000.0, 50e-6, NOMINAL, TECH45, 1e-15)
        strong = interconnect.elmore_delay(500.0, 50e-6, NOMINAL, TECH45, 1e-15)
        assert weak > strong

    def test_rejects_negative_inputs(self):
        with pytest.raises(ConfigurationError):
            interconnect.elmore_delay(-1.0, 1e-6, NOMINAL, TECH45)
        with pytest.raises(ConfigurationError):
            interconnect.elmore_delay(1.0, 1e-6, NOMINAL, TECH45, load_cap=-1e-15)

    def test_process_corner_slows_distributed_wire(self):
        """Narrow/thin metal slows a *wire-dominated* line: resistance
        grows reciprocally (x2.2 at the 3-sigma corner) while capacitance
        falls less than linearly thanks to the fringe term. (A
        driver-dominated net can actually speed up at this corner — the
        load shrinks — which is why the test pins the RC-product case.)"""
        bad = NOMINAL._replace(
            metal_width=NOMINAL.metal_width * 0.67,
            metal_thickness=NOMINAL.metal_thickness * 0.67,
        )
        assert interconnect.elmore_delay(
            0.0, 100e-6, bad, TECH45, 0.0
        ) > interconnect.elmore_delay(0.0, 100e-6, NOMINAL, TECH45, 0.0)
