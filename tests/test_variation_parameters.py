"""Tests for Table 1 parameter specs and parameter vectors."""

import pytest
from hypothesis import given, strategies as st

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.variation.parameters import (
    PARAMETER_NAMES,
    ParameterSpec,
    ProcessParameters,
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
        with pytest.raises(ConfigurationError, match="sigma"):
            TABLE1.scaled(1e-320)


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
        assert TABLE1.spec(name).three_sigma_fraction == pytest.approx(fraction)

    def test_unknown_spec_lookup(self):
        with pytest.raises(ConfigurationError):
            TABLE1.spec("nope")

    def test_from_z_scores_identity(self):
        assert TABLE1.from_z_scores({}) == TABLE1.nominal()

    def test_from_z_scores_shifts(self):
        shifted = TABLE1.from_z_scores({"vt": 3.0})
        assert shifted.vt == pytest.approx(0.220 * 1.18)
        assert shifted.lgate == TABLE1.nominal().lgate

    def test_scaled_table(self):
        wide = TABLE1.scaled(2.0)
        assert wide.spec("vt").three_sigma_fraction == pytest.approx(0.36)
        assert wide.nominal() == TABLE1.nominal()

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            TABLE1.scaled(0.0)


class TestVariationTable:
    def test_missing_spec_rejected(self):
        specs = {name: TABLE1.spec(name) for name in PARAMETER_NAMES[:-1]}
        with pytest.raises(ConfigurationError):
            VariationTable(specs)

    def test_sigmas_cover_all_names(self):
        assert set(TABLE1.sigmas()) == set(PARAMETER_NAMES)


class TestProcessParameters:
    def test_as_dict_and_iter_agree(self):
        nominal = TABLE1.nominal()
        assert list(nominal) == [nominal.as_dict()[n] for n in PARAMETER_NAMES]

    def test_replace(self):
        nominal = TABLE1.nominal()
        changed = nominal.replace(vt=0.3)
        assert changed.vt == 0.3
        assert changed.lgate == nominal.lgate

    def test_deviation_from_nominal_is_zero(self):
        nominal = TABLE1.nominal()
        assert all(
            v == pytest.approx(0.0)
            for v in nominal.deviation_from(nominal).values()
        )

    @given(st.floats(min_value=-0.5, max_value=0.5))
    def test_deviation_round_trip(self, frac):
        nominal = TABLE1.nominal()
        shifted = nominal.replace(vt=nominal.vt * (1 + frac))
        assert shifted.deviation_from(nominal)["vt"] == pytest.approx(
            frac, abs=1e-9
        )
