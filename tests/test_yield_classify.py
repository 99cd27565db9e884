"""Tests for loss classification rows and Table 6 config keys."""

import pytest

from oracles.circuit import circuit
from oracles.classify import ChipCase as OracleCase
from repro.core.errors import ConfigurationError
from repro.yieldmodel.classify import LossReason, config_key
from tests.conftest import configuration, loss_reason, make_chip


class TestConfigKey:
    def test_healthy(self):
        assert config_key((4, 4, 4, 4)) == "4-0-0"

    def test_one_five(self):
        assert config_key((4, 5, 4, 4)) == "3-1-0"

    def test_mixed_six(self):
        assert config_key((4, 5, 6, 4)) == "2-1-1"

    def test_deep_tail_counts_as_six_plus(self):
        assert config_key((4, 4, 4, 9)) == "3-0-1"

    def test_all_slow(self):
        assert config_key((5, 5, 5, 5)) == "0-4-0"

    def test_rejects_sub_base_cycles(self):
        with pytest.raises(ConfigurationError):
            config_key((3, 4, 4, 4))


class TestLossReason:
    def test_delay_bucket_lookup(self):
        assert LossReason.delay(1) is LossReason.DELAY_1
        assert LossReason.delay(4) is LossReason.DELAY_4

    def test_high_associativity_buckets_exist(self):
        assert LossReason.delay(5) is LossReason.DELAY_5
        assert LossReason.delay(8) is LossReason.DELAY_8

    def test_delay_bucket_out_of_range(self):
        with pytest.raises(ConfigurationError):
            LossReason.delay(9)


class TestChipCase:
    """One chip's row of the classification columns."""

    def test_healthy_chip_passes(self, healthy_chip):
        assert healthy_chip.passes[0]
        assert loss_reason(healthy_chip) is LossReason.NONE
        assert configuration(healthy_chip) == "4-0-0"

    def test_one_slow_way(self, one_slow_way_chip):
        chip = one_slow_way_chip
        assert not chip.passes[0]
        assert loss_reason(chip) is LossReason.DELAY_1
        assert chip.delay_violations[0].tolist() == [False, False, False, True]
        assert chip.way_cycles[0].tolist() == [4, 4, 4, 5]
        assert configuration(chip) == "3-1-0"

    def test_leakage_chip(self, leaky_chip):
        assert loss_reason(leaky_chip) is LossReason.LEAKAGE
        assert leaky_chip.leakage_violation[0]
        assert not leaky_chip.delay_violations[0].any()
        assert configuration(leaky_chip) == "4-0-0"

    def test_leakage_takes_priority_over_delay(self):
        """A chip violating both is counted in the leakage bucket (the
        Table 6 4-0-0 accounting confirms this reading)."""
        chip = make_chip(
            [0.9, 0.9, 0.9, 1.2], way_leakages=[0.3, 0.3, 0.3, 0.3]
        )
        assert loss_reason(chip) is LossReason.LEAKAGE

    def test_multi_way_delay_bucket(self):
        chip = make_chip([1.1, 1.2, 0.9, 1.3])
        assert loss_reason(chip) is LossReason.DELAY_3
        assert chip.delay_violations[0].tolist() == [True, True, False, True]

    def test_six_plus_configuration(self):
        chip = make_chip([0.9, 0.9, 0.9, 1.6])
        assert chip.way_cycles[0, 3] == 7
        assert configuration(chip) == "3-0-1"

    def test_max_leakage_way(self):
        chip = make_chip(
            [0.9] * 4, way_leakages=[0.1, 0.4, 0.2, 0.1]
        )
        assert chip.leakiest_way[0] == 1

    def test_leakage_after_disabling_way(self):
        chip = make_chip([0.9] * 4, way_leakages=[0.1, 0.4, 0.2, 0.1])
        assert chip.way_gated_leakage[0, 1] == pytest.approx(0.4)

    def test_way_cycles_without_band(self):
        """Removing the critical band lowers the cycle classification."""
        profiles = [
            [0.9, 0.9, 0.9, 1.2],  # way 0: band 3 violates
            [0.9] * 4,
            [0.9] * 4,
            [0.9] * 4,
        ]
        chip = make_chip(
            [1.2, 0.9, 0.9, 0.9], band_profiles=profiles
        )
        assert chip.way_cycles[0, 0] == 5
        oracle = OracleCase(circuit(chip.circuits, 0), chip.constraints)
        assert oracle.way_cycles_without_band(3)[0] == 4
