"""Tests for the hierarchical cache variation sampler."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from oracles.sampling import columnar_chip
from repro.core.errors import ConfigurationError
from repro.variation.columnar import (
    ColumnarPopulation,
    ColumnarPopulationSampler,
)
from repro.variation.parameters import PARAMETER_NAMES, TABLE1
from repro.variation.sampling import CacheVariationSampler, PERIPHERAL_SEGMENTS
from repro.variation.spatial import CorrelationFactors

VT = PARAMETER_NAMES.index("vt")


def make_sampler(**kwargs) -> CacheVariationSampler:
    return CacheVariationSampler(**kwargs)


def draw(seed: int, count: int, **kwargs) -> ColumnarPopulation:
    """Chips ``[0, count)`` of ``seed`` as columns."""
    return ColumnarPopulationSampler(make_sampler(**kwargs)).sample_range(
        seed, 0, count
    )


class TestSamplerStructure:
    def test_shape(self):
        cvmap = columnar_chip(make_sampler(), seed=1, chip_id=0)
        assert len(cvmap.ways) == 4
        for way in cvmap.ways:
            assert len(way.bands) == 4
            assert len(way.band_residuals) == 4

    def test_reproducible_per_chip(self):
        a = columnar_chip(make_sampler(), seed=9, chip_id=5)
        b = columnar_chip(make_sampler(), seed=9, chip_id=5)
        assert a == b

    def test_chips_differ(self):
        a = columnar_chip(make_sampler(), seed=9, chip_id=5)
        b = columnar_chip(make_sampler(), seed=9, chip_id=6)
        assert a != b

    def test_seed_changes_population(self):
        a = columnar_chip(make_sampler(), seed=1, chip_id=0)
        b = columnar_chip(make_sampler(), seed=2, chip_id=0)
        assert a != b

    def test_peripheral_lookup(self):
        cvmap = columnar_chip(make_sampler(), seed=1, chip_id=0)
        for name in PERIPHERAL_SEGMENTS:
            assert cvmap.ways[0].peripheral(name) is not None
        with pytest.raises(ConfigurationError):
            cvmap.ways[0].peripheral("bogus")

    def test_too_many_ways_for_mesh(self):
        with pytest.raises(ConfigurationError):
            make_sampler(num_ways=5)

    def test_invalid_outlier_config(self):
        with pytest.raises(ConfigurationError):
            make_sampler(outlier_band_prob=1.5)
        with pytest.raises(ConfigurationError):
            make_sampler(outlier_scale_range=(0.5, 2.0))


class TestSamplerStatistics:
    def test_all_values_positive_and_clipped(self):
        population = draw(seed=3, count=50)
        nominal = np.array(list(TABLE1.nominal()))
        for values in (
            population.way_params,
            population.peripherals[:, :, PERIPHERAL_SEGMENTS.index("decoder")],
            population.bands,
        ):
            assert (values > 0).all()
            # die draw clipped at 3 sigma; children can stray a
            # little past but must stay within die +/- child
            # clip; allow a generous global envelope.
            assert (values < nominal * 3).all()

    def test_die_mean_tracks_nominal(self):
        vts = draw(seed=11, count=400).die[:, VT]
        mean = float(np.mean(vts))
        assert mean == pytest.approx(TABLE1.nominal().vt, rel=0.02)

    def test_way_correlation_ordering(self):
        """Way 1 (horizontal, factor .375) tracks way 0 tighter than way 3
        (diagonal, .7125)."""
        vt = draw(
            seed=13, count=400, path_residual_sigma=0.0, outlier_band_prob=0.0
        ).way_params[:, :, VT]
        d1 = vt[:, 1] - vt[:, 0]
        d3 = vt[:, 3] - vt[:, 0]
        assert np.std(d3) > np.std(d1) * 1.2

    def test_band_offsets_shared_across_ways(self):
        """The same band index in different ways is positively correlated."""
        band_vt = draw(
            seed=17, count=400, path_residual_sigma=0.0, outlier_band_prob=0.0
        ).bands[..., VT]
        way_means = band_vt.mean(axis=2)
        # deviation of band 2 from its way mean, in two ways
        a = band_vt[:, 0, 2] - way_means[:, 0]
        b = band_vt[:, 3, 2] - way_means[:, 3]
        corr = float(np.corrcoef(a, b)[0, 1])
        assert corr > 0.5

    def test_band_factor_zero_decorrelates(self):
        factors = CorrelationFactors().with_band(0.0)
        population = draw(
            seed=17, count=400, factors=factors,
            path_residual_sigma=0.0, outlier_band_prob=0.0,
        )
        band_vt = population.bands[:, :, 2, VT]
        offsets = band_vt - population.way_params[..., VT]
        a, b = offsets[:, 0], offsets[:, 3]
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 0.2

    def test_residuals_unit_mean(self):
        values = draw(seed=23, count=300, outlier_band_prob=0.0).band_residuals
        assert float(np.mean(values)) == pytest.approx(1.0, rel=0.05)

    def test_outliers_appear_at_configured_rate(self):
        residuals = draw(
            seed=29,
            count=200,
            path_residual_sigma=0.0,
            outlier_band_prob=0.05,
            outlier_scale_range=(1.5, 1.5),
        ).band_residuals
        hits = int(np.count_nonzero(residuals > 1.4))
        assert hits / residuals.size == pytest.approx(0.05, abs=0.02)

    def test_residuals_disabled(self):
        sampler = make_sampler(path_residual_sigma=0.0, outlier_band_prob=0.0)
        cvmap = columnar_chip(sampler, seed=1, chip_id=0)
        assert cvmap.ways[0].band_residuals == ()


class TestPopulationDraws:
    def test_prefix_stability(self):
        """Chip i is identical regardless of population size."""
        columnar = ColumnarPopulationSampler(make_sampler())
        small = columnar.sample_range(5, 0, 3)
        large = columnar.sample_range(5, 0, 6)
        assert small.chip_ids == large.chip_ids[:3]
        for name in (
            "die", "way_params", "peripherals", "bands", "band_residuals"
        ):
            assert getattr(small, name).tobytes() == \
                getattr(large, name)[:3].tobytes()


@hsettings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), chip=st.integers(0, 50))
def test_sampling_is_pure(seed, chip):
    """Property: sampling any chip twice yields identical maps."""
    sampler = CacheVariationSampler()
    assert columnar_chip(sampler, seed, chip) == \
        columnar_chip(sampler, seed, chip)
