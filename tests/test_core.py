"""Tests for repro.core: units, rng, validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.core.rng import derive_seed, spawn
from repro.core.validation import (
    require_divides,
    require_in_range,
    require_non_negative,
    require_positive,
    require_power_of_two,
)


class TestUnits:
    def test_time_round_trips(self):
        assert units.to_ps(1e-12) == pytest.approx(1.0)
        assert units.to_ns(2.5e-9) == pytest.approx(2.5)

    def test_power_round_trips(self):
        assert units.to_mw(0.005) == pytest.approx(5.0)

    def test_data_sizes(self):
        assert 16 * units.KB == 16384
        assert units.MB == 1024 * units.KB

    def test_prefixes_consistent(self):
        assert units.NM == units.NANO
        assert units.PS == units.PICO
        assert units.GIGA * units.NANO == pytest.approx(1.0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_label_sensitivity(self):
        assert derive_seed(42, "x") != derive_seed(42, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_non_negative(self):
        assert derive_seed(0, "") >= 0

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=30))
    def test_always_in_range(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2**63

    def test_spawn_reproducible(self):
        a = spawn(7, "chip-3").normal(size=5)
        b = spawn(7, "chip-3").normal(size=5)
        assert np.array_equal(a, b)

    def test_spawn_independent(self):
        a = spawn(7, "chip-3").normal(size=5)
        b = spawn(7, "chip-4").normal(size=5)
        assert not np.array_equal(a, b)


class TestValidation:
    def test_require_positive_accepts(self):
        require_positive(0.1, "x")

    def test_require_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")

    def test_require_positive_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_positive(-1, "x")

    def test_require_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.001, "x")

    def test_require_in_range_inclusive(self):
        require_in_range(0.0, 0.0, 1.0, "x")
        require_in_range(1.0, 0.0, 1.0, "x")
        with pytest.raises(ConfigurationError):
            require_in_range(1.01, 0.0, 1.0, "x")

    @pytest.mark.parametrize("value", [1, 2, 4, 1024, 2**20])
    def test_power_of_two_accepts(self, value):
        require_power_of_two(value, "x")

    @pytest.mark.parametrize("value", [0, 3, 6, -4, 1023])
    def test_power_of_two_rejects(self, value):
        with pytest.raises(ConfigurationError):
            require_power_of_two(value, "x")

    def test_require_divides(self):
        require_divides(4, 16, "x")
        with pytest.raises(ConfigurationError):
            require_divides(3, 16, "x")
        with pytest.raises(ConfigurationError):
            require_divides(0, 16, "x")

    def test_error_message_includes_name(self):
        with pytest.raises(ConfigurationError, match="myparam"):
            require_positive(-1, "myparam")
