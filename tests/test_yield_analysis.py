"""Tests for the population yield study (small, fast populations)."""

import numpy as np
import pytest

from repro.circuit.organization import CacheOrganization
from repro.core.errors import ConfigurationError
from repro.schemes import HYAPD, Hybrid, HybridHorizontal, VACA, YAPD
from repro.variation.columnar import ColumnarPopulationSampler
from repro.variation.sampling import CacheVariationSampler
from repro.variation.spatial import MeshLayout
from repro.yieldmodel import LossReason, YieldStudy
from repro.yieldmodel.analysis import PopulationResult
from repro.yieldmodel.constraints import RELAXED_POLICY, STRICT_POLICY

CHIPS = 400


@pytest.fixture(scope="module")
def pop():
    return YieldStudy(seed=2006, count=CHIPS).run()


def _column_bytes(pop: PopulationResult):
    """Every circuit column of both architectures, as bytes."""
    return [
        getattr(circuits, name).tobytes()
        for circuits in (pop.regular, pop.horizontal)
        for name in ("band_delays", "band_leakage", "peripheral_leakage")
    ]


class TestPopulationBasics:
    def test_population_size(self, pop):
        assert pop.population == CHIPS
        assert len(pop.horizontal) == CHIPS

    def test_deterministic(self):
        a = YieldStudy(seed=77, count=60).run()
        b = YieldStudy(seed=77, count=60).run()
        assert _column_bytes(a) == _column_bytes(b)

    def test_seed_changes_chips(self):
        a = YieldStudy(seed=1, count=30).run()
        b = YieldStudy(seed=2, count=30).run()
        assert _column_bytes(a) != _column_bytes(b)

    def test_same_limits_for_both_architectures(self, pop):
        assert pop.chips(False).constraints is pop.constraints
        assert pop.chips(True).constraints is pop.constraints

    def test_h_architecture_is_uniformly_slower(self, pop):
        regular = pop.regular.access_delays[:100].tolist()
        horizontal = pop.horizontal.access_delays[:100].tolist()
        for delay, h_delay in zip(regular, horizontal):
            assert h_delay == pytest.approx(delay * 1.025)

    def test_h_architecture_leaks_identically(self, pop):
        regular = pop.regular.total_leakage[:100].tolist()
        horizontal = pop.horizontal.total_leakage[:100].tolist()
        for leakage, h_leakage in zip(regular, horizontal):
            assert h_leakage == pytest.approx(leakage)

    def test_scatter_normalisation(self, pop):
        norm_leak, delays = pop.scatter()
        assert len(norm_leak) == CHIPS
        assert sum(norm_leak) / CHIPS == pytest.approx(1.0)


class TestBreakdownAccounting:
    def test_base_counts_cover_all_failures(self, pop):
        bd = pop.breakdown([YAPD()])
        failing = int(np.count_nonzero(~pop.chips().passes))
        assert bd.base_total == failing

    def test_scheme_losses_never_exceed_base(self, pop):
        bd = pop.breakdown([YAPD(), VACA(), Hybrid()])
        for reason, base, losses in bd.rows():
            for value in losses.values():
                assert 0 <= value <= base

    def test_yield_accounting(self, pop):
        bd = pop.breakdown([Hybrid()])
        assert bd.yield_with() == pytest.approx(
            1 - bd.base_total / CHIPS
        )
        assert bd.yield_with("Hybrid") >= bd.yield_with()

    def test_vaca_never_saves_leakage(self, pop):
        bd = pop.breakdown([VACA()])
        leak_base = bd.base_counts.get(LossReason.LEAKAGE, 0)
        assert bd.scheme_losses["VACA"].get(LossReason.LEAKAGE, 0) == leak_base

    def test_yapd_eliminates_single_way_delay_losses(self, pop):
        bd = pop.breakdown([YAPD()])
        assert bd.scheme_losses["YAPD"].get(LossReason.DELAY_1, 0) == 0

    def test_yapd_cannot_fix_multi_way_delay(self, pop):
        bd = pop.breakdown([YAPD()])
        for reason in (LossReason.DELAY_2, LossReason.DELAY_3, LossReason.DELAY_4):
            assert bd.scheme_losses["YAPD"].get(reason, 0) == bd.base_counts.get(
                reason, 0
            )

    def test_hybrid_dominates_both_parents(self, pop):
        bd = pop.breakdown([YAPD(), VACA(), Hybrid()])
        assert bd.scheme_total("Hybrid") <= bd.scheme_total("YAPD")
        assert bd.scheme_total("Hybrid") <= bd.scheme_total("VACA")

    def test_horizontal_breakdown(self, pop):
        bdh = pop.breakdown(
            [HYAPD(), VACA(), HybridHorizontal()], horizontal=True
        )
        assert bdh.base_total >= 0
        assert bdh.scheme_total("Hybrid-H") <= bdh.scheme_total("H-YAPD")


class TestCensus:
    def test_census_counts_saved_failures_only(self, pop):
        census = pop.configuration_census(Hybrid())
        chips = pop.chips()
        saved_failures = int(
            np.count_nonzero(~chips.passes & Hybrid().decide(chips).saved)
        )
        assert sum(census.values()) == saved_failures

    def test_census_keys_are_config_strings(self, pop):
        for key in pop.configuration_census(Hybrid()):
            a, b, c = key.split("-")
            assert int(a) + int(b) + int(c) == 4


class TestReconstrained:
    def test_strict_has_more_losses(self, pop):
        strict = pop.reconstrained(STRICT_POLICY)
        relaxed = pop.reconstrained(RELAXED_POLICY)
        fail = lambda population: int(
            (~population.chips().passes).sum()
        )
        assert fail(strict) > fail(pop) > fail(relaxed)

    def test_same_circuits(self, pop):
        strict = pop.reconstrained(STRICT_POLICY)
        assert strict.regular is pop.regular
        assert strict.horizontal is pop.horizontal
        assert _column_bytes(strict) == _column_bytes(pop)


class TestStudyRefusals:
    def test_more_ways_than_delay_buckets_refused_before_drawing(
        self, monkeypatch
    ):
        """A 16-way study could meet a chip with more violating ways
        than the loss buckets count; it is refused before any chip is
        drawn, not after the whole population is evaluated."""

        def draw(*args):
            raise AssertionError("a refused study drew chips")

        monkeypatch.setattr(ColumnarPopulationSampler, "sample_range", draw)
        with pytest.raises(ConfigurationError, match="16 violating ways"):
            YieldStudy(
                seed=1,
                count=400,
                organization=CacheOrganization(num_ways=16),
                sampler=CacheVariationSampler(
                    num_ways=16, mesh=MeshLayout(rows=4, cols=4)
                ),
            )

    def test_eight_ways_accepted(self):
        study = YieldStudy(
            seed=1,
            count=8,
            organization=CacheOrganization(num_ways=8),
            sampler=CacheVariationSampler(
                num_ways=8, mesh=MeshLayout(rows=2, cols=4)
            ),
        )
        assert study.run().population == 8
