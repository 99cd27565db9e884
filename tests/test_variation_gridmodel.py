"""Tests for the grid-based (Friedberg-style) correlation sampler."""

import numpy as np
import pytest

from repro.circuit import CacheCircuitModel
from repro.circuit.columnar import evaluate_population
from repro.core.errors import ConfigurationError
from repro.variation.columnar import ColumnarPopulation
from repro.variation.gridmodel import GridCorrelationModel, GridVariationSampler
from repro.variation.parameters import TABLE1


class TestGridCorrelationModel:
    def test_covariance_is_unit_diagonal(self):
        cov = GridCorrelationModel(rows=4, cols=4).covariance()
        assert np.allclose(np.diag(cov), 1.0)

    def test_covariance_decays_with_distance(self):
        model = GridCorrelationModel(rows=1, cols=8, correlation_length=2.0)
        cov = model.covariance()
        assert cov[0, 1] > cov[0, 4] > cov[0, 7]

    def test_longer_correlation_length_is_smoother(self):
        short = GridCorrelationModel(correlation_length=1.0).covariance()
        long_ = GridCorrelationModel(correlation_length=6.0).covariance()
        assert long_[0, 10] > short[0, 10]

    def test_cholesky_reconstructs(self):
        model = GridCorrelationModel(rows=4, cols=4)
        chol = model.cholesky()
        assert np.allclose(chol @ chol.T, model.covariance(), atol=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GridCorrelationModel(rows=0)
        with pytest.raises(ConfigurationError):
            GridCorrelationModel(intra_fraction=1.5)

    def test_cholesky_cached_per_instance(self):
        """The O(cells^3) factorisation runs once per model geometry."""
        model = GridCorrelationModel(rows=6, cols=6)
        assert model.cholesky() is model.cholesky()

    def test_cholesky_factorises_once_across_samplers(self, monkeypatch):
        calls = []
        real = np.linalg.cholesky

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        model = GridCorrelationModel(rows=4, cols=4)
        GridVariationSampler(model=model)
        GridVariationSampler(model=model)
        assert len(calls) == 1

    def test_cached_factor_still_correct(self):
        model = GridCorrelationModel(rows=4, cols=4)
        model.cholesky()  # prime the cache
        chol = model.cholesky()
        assert np.allclose(chol @ chol.T, model.covariance(), atol=1e-6)


class TestGridVariationSampler:
    def test_map_shape_matches_hierarchical(self):
        cvmap = GridVariationSampler().sample_chip(seed=1, chip_id=0)
        assert len(cvmap.ways) == 4
        assert len(cvmap.ways[0].bands) == 4
        assert len(cvmap.ways[0].band_residuals) == 4

    def test_deterministic(self):
        sampler = GridVariationSampler()
        assert sampler.sample_chip(3, 5) == sampler.sample_chip(3, 5)

    def test_feeds_circuit_model(self):
        cvmap = GridVariationSampler().sample_chip(seed=2, chip_id=1)
        result = evaluate_population(
            CacheCircuitModel(), ColumnarPopulation.from_maps([cvmap])
        )
        assert result.access_delays[0] > 0
        assert result.total_leakage[0] > 0

    def test_adjacent_bands_more_correlated_than_distant(self):
        """The field is smooth: neighbouring bands track each other more
        tightly than bands at opposite ends of a way."""
        sampler = GridVariationSampler(
            path_residual_sigma=0.0, outlier_band_prob=0.0
        )
        near, far = [], []
        for i in range(300):
            cvmap = sampler.sample_chip(seed=11, chip_id=i)
            bands = cvmap.ways[0].bands
            near.append(bands[0].vt - bands[1].vt)
            far.append(bands[0].vt - bands[3].vt)
        assert np.std(far) > np.std(near)

    def test_same_band_correlated_across_adjacent_ways(self):
        """Way 0 and way 1 share the mesh row: their band-0 cells are
        physically close, so their intra-die components correlate."""
        sampler = GridVariationSampler(
            path_residual_sigma=0.0, outlier_band_prob=0.0
        )
        a, b = [], []
        for i in range(300):
            cvmap = sampler.sample_chip(seed=13, chip_id=i)
            mean = np.mean(
                [w.bands[0].vt for w in cvmap.ways]
            )
            a.append(cvmap.ways[0].bands[0].vt - mean)
            b.append(cvmap.ways[1].bands[0].vt - mean)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert corr > -0.5  # not anti-correlated; smooth fields overlap

    def test_mean_tracks_nominal(self):
        sampler = GridVariationSampler()
        vts = [
            sampler.sample_chip(seed=17, chip_id=i).die.vt for i in range(300)
        ]
        assert float(np.mean(vts)) == pytest.approx(
            TABLE1.nominal().vt, rel=0.03
        )

    def test_rejects_non_mesh_way_count(self):
        with pytest.raises(ConfigurationError):
            GridVariationSampler(num_ways=2)

    def test_yield_pipeline_compatible(self):
        """Grid chips go through the columnar circuit kernel and the yield
        study's assembly."""
        from repro.circuit.columnar import evaluate_population_pair
        from repro.schemes import Hybrid, YAPD
        from repro.variation.columnar import ColumnarPopulation
        from repro.yieldmodel import YieldStudy

        sampler = GridVariationSampler()
        population = ColumnarPopulation.from_maps(
            [sampler.sample_chip(2006, chip_id) for chip_id in range(200)]
        )
        pop = YieldStudy(seed=2006, count=200).assemble(
            *evaluate_population_pair(
                CacheCircuitModel(), CacheCircuitModel(hyapd=True), population
            )
        )
        assert pop.population == 200
        bd = pop.breakdown([YAPD(), Hybrid()])
        if bd.base_total:
            assert bd.scheme_total("Hybrid") <= bd.scheme_total("YAPD")
