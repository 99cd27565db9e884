"""Tests for the extension schemes: DeepVACA and the sensor layer."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.schemes import DeepVACA, VACA, YAPD
from repro.schemes.sensors import LeakageSensor, yield_with_sensor
from repro.yieldmodel import YieldStudy
from tests.conftest import decision_row, make_chip


class TestDeepVACA:
    def test_slack_two_tolerates_six_cycles(self):
        case = make_chip([0.9, 0.9, 0.9, 1.45])  # a 6-cycle way
        assert not VACA().decide(case).saved[0]
        outcome = decision_row(DeepVACA(2).decide(case))
        assert outcome.saved
        assert outcome.way_cycles == (4, 4, 4, 6)

    def test_slack_two_still_bounded(self):
        case = make_chip([0.9, 0.9, 0.9, 1.6])  # a 7-cycle way
        assert not DeepVACA(2).decide(case).saved[0]
        assert DeepVACA(3).decide(case).saved[0]

    def test_slack_one_equals_vaca(self):
        for delays in ([0.9, 1.2, 0.9, 0.9], [0.9, 1.3, 0.9, 0.9]):
            case = make_chip(delays)
            assert DeepVACA(1).decide(case).saved[0] == \
                VACA().decide(case).saved[0]

    def test_leakage_still_unfixable(self, leaky_chip):
        assert not DeepVACA(3).decide(leaky_chip).saved[0]

    def test_max_cycles(self):
        assert DeepVACA(2).max_cycles == 6

    def test_rejects_negative_slack(self):
        with pytest.raises(ConfigurationError):
            DeepVACA(-1)


class TestLeakageSensor:
    VALUES = np.array([[1.0, 2.0, 3.0, 4.0]])

    def test_perfect_sensor_is_identity(self):
        sensor = LeakageSensor(relative_noise=0.0, quantisation_levels=0)
        assert sensor.measure([7], self.VALUES).tolist() == \
            self.VALUES.tolist()

    def test_noisy_sensor_perturbs(self):
        sensor = LeakageSensor(relative_noise=0.2, quantisation_levels=0)
        assert sensor.measure([7], self.VALUES).tolist() != \
            self.VALUES.tolist()

    def test_deterministic_per_chip(self):
        sensor = LeakageSensor(relative_noise=0.1)
        values = np.repeat(self.VALUES, 2, axis=0)
        both = sensor.measure([7, 8], values).tolist()
        assert both[0] == sensor.measure([7], self.VALUES).tolist()[0]
        assert both[1] == sensor.measure([8], self.VALUES).tolist()[0]
        assert both[0] != both[1]

    def test_quantisation_limits_codes(self):
        sensor = LeakageSensor(relative_noise=0.0, quantisation_levels=4)
        measured = sensor.measure([1], np.array([[0.1, 0.2, 0.3, 1.0]]))
        step = 1.0 / 4
        for value in measured[0].tolist():
            assert value / step == pytest.approx(round(value / step))

    def test_noise_can_flip_the_leakiest_way(self):
        case = make_chip(
            [0.9] * 4, way_leakages=[0.30, 0.31, 0.30, 0.30]
        )
        truth = case.leakiest_way[0]
        flips = 0
        for seed in range(30):
            sensor = LeakageSensor(relative_noise=0.2, seed=seed)
            measured = sensor.measure(
                case.circuits.chip_ids, case.circuits.way_leakages
            )
            if measured.argmax(axis=1)[0] != truth:
                flips += 1
        assert flips > 0  # a near-tie is fragile under 20% noise


class TestYieldWithSensor:
    @pytest.fixture(scope="class")
    def chips(self):
        return YieldStudy(seed=2006, count=300).run().chips()

    def test_perfect_sensor_matches_direct_yapd(self, chips):
        sensor = LeakageSensor(relative_noise=0.0, quantisation_levels=0)
        believed, actual = yield_with_sensor(chips, YAPD(), sensor)
        direct = int(
            np.count_nonzero(~chips.passes & YAPD().decide(chips).saved)
        )
        assert believed == actual == direct

    def test_noise_creates_false_saves_or_losses(self, chips):
        sensor = LeakageSensor(relative_noise=0.4, quantisation_levels=4, seed=9)
        believed, actual = yield_with_sensor(chips, YAPD(), sensor)
        perfect_believed, perfect_actual = yield_with_sensor(
            chips, YAPD(), LeakageSensor(0.0, 0)
        )
        assert actual <= believed
        # a very bad sensor cannot beat the perfect one in true saves
        assert actual <= perfect_actual
