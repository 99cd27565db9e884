"""Tests for the operating-temperature models."""

import numpy as np
import pytest

from repro.circuit import CacheCircuitModel
from repro.circuit.columnar import evaluate_population_pair
from repro.circuit.technology import REFERENCE_TEMPERATURE, TECH45
from repro.variation.columnar import ColumnarPopulationSampler
from repro.variation.parameters import TABLE1
from repro.variation.sampling import CacheVariationSampler

from oracles import circuit as devices

NOMINAL = TABLE1.nominal()


class TestTemperatureScaling:
    def test_reference_temperature_is_identity(self):
        assert TECH45.temperature == REFERENCE_TEMPERATURE
        assert TECH45.temperature_ratio == pytest.approx(1.0)

    def test_cold_chip_leaks_less(self):
        cold = TECH45.replace(temperature=300.0)
        assert devices.subthreshold_current(
            1e-6, NOMINAL, cold
        ) < devices.subthreshold_current(1e-6, NOMINAL, TECH45)

    def test_hot_chip_leaks_more(self):
        hot = TECH45.replace(temperature=400.0)
        assert devices.subthreshold_current(
            1e-6, NOMINAL, hot
        ) > devices.subthreshold_current(1e-6, NOMINAL, TECH45)

    def test_leakage_temperature_sensitivity_is_strong(self):
        """85C -> 25C cuts subthreshold leakage several-fold (textbook)."""
        room = TECH45.replace(temperature=298.0)
        ratio = devices.subthreshold_current(
            1e-6, NOMINAL, TECH45
        ) / devices.subthreshold_current(1e-6, NOMINAL, room)
        assert ratio > 2.0

    def test_cold_chip_is_faster(self):
        """Mobility improves at low temperature."""
        cold = TECH45.replace(temperature=300.0)
        assert devices.stage_delay(
            1e-6, 1e-15, NOMINAL, cold
        ) < devices.stage_delay(1e-6, 1e-15, NOMINAL, TECH45)

    def test_whole_cache_scales(self):
        cold_model = CacheCircuitModel(
            tech=TECH45.replace(temperature=300.0)
        )
        hot_model = CacheCircuitModel(tech=TECH45)
        cold = cold_model.nominal()
        hot = hot_model.nominal()
        assert cold.total_leakage[0] < hot.total_leakage[0]
        assert cold.access_delays[0] < hot.access_delays[0]

    def test_temperature_must_be_positive(self):
        with pytest.raises(Exception):
            TECH45.replace(temperature=0.0)


class TestYieldVsTemperature:
    def test_relative_leakage_spread_widens_when_cold(self):
        """The subthreshold swing scales with T, so a fixed Vt variation
        moves *more decades* of leakage at low temperature — relative
        leakage variability is worse cold (the well-known reason burn-in
        binning is done hot)."""
        population = ColumnarPopulationSampler(
            CacheVariationSampler()
        ).sample_range(3, 0, 150)

        def leak_spread(temperature):
            tech = TECH45.replace(temperature=temperature)
            regular, _ = evaluate_population_pair(
                CacheCircuitModel(tech=tech),
                CacheCircuitModel(tech=tech, hyapd=True),
                population,
            )
            return np.std(np.log(regular.total_leakage))

        assert leak_spread(300.0) > leak_spread(400.0)
