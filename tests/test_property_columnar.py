"""Property tests for the columnar population sampler.

The differential battery (``test_columnar_diff.py``) proves the columnar
arrays equal the per-chip reference bit for bit; these tests check the
arrays are *statistically right in their own terms* — Table 1 means and
variances, the shared-band-offset structure the H-YAPD argument rests
on, and the clip envelope — directly on the columns, where a bulk
arithmetic bug (a transposed axis, a mis-tiled scale vector) would show
up even if it happened to cancel in some spot checks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from oracles.sampling import chip_map
from repro.variation.columnar import ColumnarPopulationSampler
from repro.variation.parameters import PARAMETER_NAMES, TABLE1
from repro.variation.sampling import CacheVariationSampler
from repro.variation.spatial import CorrelationFactors

_NOMINAL = np.array(list(TABLE1.nominal()))
_SIGMA = np.array([TABLE1.sigmas()[name] for name in PARAMETER_NAMES])


def _population(count=400, seed=11, **kwargs):
    sampler = CacheVariationSampler(**kwargs)
    return sampler, ColumnarPopulationSampler(sampler).sample_range(
        seed, 0, count
    )


class TestTable1Moments:
    def test_die_means_track_nominal(self):
        _, population = _population()
        means = population.die.mean(axis=0)
        np.testing.assert_allclose(means, _NOMINAL, rtol=0.02)

    def test_die_variance_tracks_inter_die_factor(self):
        """Die std ~= inter_die * Table 1 sigma (3-sigma clipping trims
        only the extreme tail, a ~1% std reduction)."""
        sampler, population = _population(count=600)
        expected = sampler.factors.inter_die * _SIGMA
        stds = population.die.std(axis=0)
        assert np.all(stds > 0.85 * expected)
        assert np.all(stds < 1.05 * expected)

    def test_way_variance_grows_with_mesh_distance(self):
        """Way 3 (diagonal, factor .7125) spreads wider around the die
        value than way 1 (horizontal, .375); way 0 is the die exactly."""
        _, population = _population(count=600)
        deviations = population.way_params - population.die[:, None, :]
        assert np.all(deviations[:, 0, :] == 0.0)
        vt = PARAMETER_NAMES.index("vt")
        assert (
            deviations[:, 3, vt].std() > deviations[:, 1, vt].std() * 1.2
        )


class TestBandStructure:
    def test_band_offsets_shared_across_ways(self):
        """The same band index shifts every way by the same offset.

        With the row factor at zero a band segment is exactly its way
        value plus the shared band offset (then clipped), so the
        deviation ``bands - way_params`` must agree across ways wherever
        no clip engaged — the structural premise behind H-YAPD.
        """
        _, population = _population(
            count=200,
            factors=CorrelationFactors(row=0.0),
            clip_sigma=6.0,
            path_residual_sigma=0.0,
            outlier_band_prob=0.0,
        )
        offsets = population.bands - population.way_params[:, :, None, :]
        low = _NOMINAL - 6.0 * _SIGMA
        high = _NOMINAL + 6.0 * _SIGMA
        unclipped = (population.bands > low) & (population.bands < high)
        # compare every way's offset to way 0's, where neither was clipped
        reference = offsets[:, :1, :, :]
        comparable = unclipped & unclipped[:, :1, :, :]
        error = np.where(comparable, np.abs(offsets - reference), 0.0)
        assert np.all(error <= 1e-9 * _NOMINAL)

    def test_band_factor_zero_keeps_bands_on_way(self):
        _, population = _population(
            count=100,
            factors=CorrelationFactors(row=0.0, band=0.0),
            path_residual_sigma=0.0,
            outlier_band_prob=0.0,
        )
        np.testing.assert_array_equal(
            population.bands, np.broadcast_to(
                population.way_params[:, :, None, :], population.bands.shape
            )
        )


class TestClipEnvelope:
    def _assert_within(self, array, clip_sigma):
        low = np.maximum(
            _NOMINAL - clip_sigma * _SIGMA,
            _NOMINAL * CacheVariationSampler._FLOOR_FRACTION,
        )
        high = _NOMINAL + clip_sigma * _SIGMA
        assert np.all(array >= low)
        assert np.all(array <= high)

    @pytest.mark.parametrize("clip_sigma", [1.5, 3.0])
    def test_all_columns_clipped(self, clip_sigma):
        _, population = _population(count=150, clip_sigma=clip_sigma)
        self._assert_within(population.die, clip_sigma)
        self._assert_within(population.way_params, clip_sigma)
        self._assert_within(population.peripherals, clip_sigma)
        self._assert_within(population.bands, clip_sigma)

    @hsettings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_clipped_for_any_seed(self, seed):
        _, population = _population(count=20, seed=seed)
        self._assert_within(population.bands, 3.0)
        self._assert_within(population.die, 3.0)


class TestResidualColumns:
    def test_unit_mean_lognormal(self):
        _, population = _population(count=300, outlier_band_prob=0.0)
        assert population.has_residuals
        assert np.all(population.band_residuals > 0)
        assert float(population.band_residuals.mean()) == pytest.approx(
            1.0, rel=0.05
        )

    def test_outlier_rate(self):
        _, population = _population(
            count=300,
            path_residual_sigma=0.0,
            outlier_band_prob=0.05,
            outlier_scale_range=(1.5, 1.5),
        )
        hits = float((population.band_residuals > 1.4).mean())
        assert hits == pytest.approx(0.05, abs=0.02)

    def test_disabled_residuals_are_ones(self):
        _, population = _population(
            count=50, path_residual_sigma=0.0, outlier_band_prob=0.0
        )
        assert not population.has_residuals
        np.testing.assert_array_equal(
            population.band_residuals,
            np.ones_like(population.band_residuals),
        )
        assert chip_map(population, 0).ways[0].band_residuals == ()
