"""Tests for the extension schemes: DeepVACA and the sensor layer."""

import pytest

from repro.core.errors import ConfigurationError
from repro.schemes import DeepVACA, VACA, YAPD
from repro.schemes.sensors import (
    LeakageSensor,
    MeasuredChipCase,
    yield_with_sensor,
)
from repro.yieldmodel import YieldStudy
from tests.conftest import make_chip


class TestDeepVACA:
    def test_slack_two_tolerates_six_cycles(self):
        case = make_chip([0.9, 0.9, 0.9, 1.45])  # a 6-cycle way
        assert not VACA().rescue(case).saved
        outcome = DeepVACA(2).rescue(case)
        assert outcome.saved
        assert outcome.way_cycles == (4, 4, 4, 6)

    def test_slack_two_still_bounded(self):
        case = make_chip([0.9, 0.9, 0.9, 1.6])  # a 7-cycle way
        assert not DeepVACA(2).rescue(case).saved
        assert DeepVACA(3).rescue(case).saved

    def test_slack_one_equals_vaca(self):
        for delays in ([0.9, 1.2, 0.9, 0.9], [0.9, 1.3, 0.9, 0.9]):
            case = make_chip(delays)
            assert DeepVACA(1).rescue(case).saved == VACA().rescue(case).saved

    def test_leakage_still_unfixable(self, leaky_chip):
        assert not DeepVACA(3).rescue(leaky_chip).saved

    def test_max_cycles(self):
        assert DeepVACA(2).max_cycles == 6

    def test_rejects_negative_slack(self):
        with pytest.raises(ConfigurationError):
            DeepVACA(-1)


class TestLeakageSensor:
    def test_perfect_sensor_is_identity(self):
        sensor = LeakageSensor(relative_noise=0.0, quantisation_levels=0)
        values = (1.0, 2.0, 3.0, 4.0)
        assert sensor.measure_ways(7, values) == values

    def test_noisy_sensor_perturbs(self):
        sensor = LeakageSensor(relative_noise=0.2, quantisation_levels=0)
        values = (1.0, 2.0, 3.0, 4.0)
        assert sensor.measure_ways(7, values) != values

    def test_deterministic_per_chip(self):
        sensor = LeakageSensor(relative_noise=0.1)
        values = (1.0, 2.0, 3.0, 4.0)
        assert sensor.measure_ways(7, values) == sensor.measure_ways(7, values)
        assert sensor.measure_ways(7, values) != sensor.measure_ways(8, values)

    def test_quantisation_limits_codes(self):
        sensor = LeakageSensor(relative_noise=0.0, quantisation_levels=4)
        measured = sensor.measure_ways(1, (0.1, 0.2, 0.3, 1.0))
        step = 1.0 / 4
        for value in measured:
            assert value / step == pytest.approx(round(value / step))


class TestMeasuredChipCase:
    def test_noise_can_flip_the_leakiest_way(self):
        case = make_chip(
            [0.9] * 4, way_leakages=[0.30, 0.31, 0.30, 0.30]
        )
        truth = case.max_leakage_way()
        flips = 0
        for seed in range(30):
            sensor = LeakageSensor(relative_noise=0.2, seed=seed)
            measured = MeasuredChipCase(case, sensor)
            if measured.max_leakage_way() != truth:
                flips += 1
        assert flips > 0  # a near-tie is fragile under 20% noise

    def test_truth_preserved(self, leaky_chip):
        sensor = LeakageSensor(relative_noise=0.3, seed=3)
        measured = MeasuredChipCase(leaky_chip, sensor)
        assert measured.truth is leaky_chip
        assert measured.circuit is leaky_chip.circuit


class TestYieldWithSensor:
    @pytest.fixture(scope="class")
    def cases(self):
        pop = YieldStudy(seed=2006, count=300).run()
        return [pop.case(i) for i in range(pop.population)]

    def test_perfect_sensor_matches_direct_yapd(self, cases):
        sensor = LeakageSensor(relative_noise=0.0, quantisation_levels=0)
        believed, actual = yield_with_sensor(cases, YAPD(), sensor)
        direct = sum(
            1 for c in cases if not c.passes and YAPD().rescue(c).saved
        )
        assert believed == actual == direct

    def test_noise_creates_false_saves_or_losses(self, cases):
        sensor = LeakageSensor(relative_noise=0.4, quantisation_levels=4, seed=9)
        believed, actual = yield_with_sensor(cases, YAPD(), sensor)
        perfect_believed, perfect_actual = yield_with_sensor(
            cases, YAPD(), LeakageSensor(0.0, 0)
        )
        assert actual <= believed
        # a very bad sensor cannot beat the perfect one in true saves
        assert actual <= perfect_actual
