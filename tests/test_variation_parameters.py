"""Tests for Table 1 parameter specs and parameter vectors."""

import pytest

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.variation.parameters import (
    PARAMETER_NAMES,
    ParameterSpec,
    TABLE1,
    VariationTable,
)


class TestParameterSpec:
    def test_sigma_is_third_of_range(self):
        spec = ParameterSpec("vt", 0.220, 0.18)
        assert spec.sigma == pytest.approx(0.220 * 0.06)

    def test_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError):
            ParameterSpec("oxide", 1.0, 0.1)

    def test_rejects_non_positive_nominal(self):
        with pytest.raises(ConfigurationError):
            ParameterSpec("vt", 0.0, 0.1)

    def test_rejects_sigma_that_underflows_to_zero(self):
        """Positive inputs whose product underflows leave no variation;
        the samplers' draw arithmetic assumes every sigma is positive."""
        assert 0.22 * 5e-324 / 3.0 == 0.0
        with pytest.raises(ConfigurationError, match="sigma"):
            ParameterSpec("vt", 0.22, 5e-324)


class TestTable1:
    """Pin the paper's Table 1 values exactly."""

    def test_nominal_values(self):
        nominal = TABLE1.nominal()
        assert nominal.lgate == pytest.approx(45 * units.NM)
        assert nominal.vt == pytest.approx(220 * units.MV)
        assert nominal.metal_width == pytest.approx(0.25 * units.UM)
        assert nominal.metal_thickness == pytest.approx(0.55 * units.UM)
        assert nominal.ild_thickness == pytest.approx(0.15 * units.UM)

    @pytest.mark.parametrize(
        "name,fraction",
        [
            ("lgate", 0.10),
            ("vt", 0.18),
            ("metal_width", 0.33),
            ("metal_thickness", 0.33),
            ("ild_thickness", 0.35),
        ],
    )
    def test_three_sigma_fractions(self, name, fraction):
        nominal = getattr(TABLE1.nominal(), name)
        assert TABLE1.sigmas()[name] == pytest.approx(nominal * fraction / 3)


class TestVariationTable:
    def test_missing_spec_rejected(self):
        specs = {
            name: ParameterSpec(name, 1.0, 0.1) for name in PARAMETER_NAMES[:-1]
        }
        with pytest.raises(ConfigurationError):
            VariationTable(specs)

    def test_sigmas_cover_all_names(self):
        assert set(TABLE1.sigmas()) == set(PARAMETER_NAMES)
