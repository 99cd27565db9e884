"""Tests for yield confidence intervals."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.core.errors import ConfigurationError
from repro.schemes import Hybrid, YAPD
from repro.schemes.base import Decisions
from repro.yieldmodel import YieldStudy
from repro.yieldmodel.statistics import (
    bootstrap_interval,
    bootstrap_replicates,
    loss_reduction_interval,
    scheme_yield_interval,
    wilson_interval,
)

from tests.conftest import make_chip, make_population


class _NeverSaves:
    """A scheme that rescues nothing (edge-case populations)."""

    name = "NeverSaves"

    def decide(self, chips) -> Decisions:
        return Decisions.of(chips, chips.passes)


class TestWilson:
    def test_symmetric_at_half(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert (0.5 - low) == pytest.approx(high - 0.5, abs=1e-9)

    def test_behaves_at_extremes(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert high > 0.0
        low, high = wilson_interval(100, 100)
        assert high == 1.0
        assert low < 1.0

    def test_narrows_with_population(self):
        small = wilson_interval(90, 100)
        large = wilson_interval(900, 1000)
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_higher_confidence_is_wider(self):
        narrow = wilson_interval(90, 100, confidence=0.90)
        wide = wilson_interval(90, 100, confidence=0.99)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)
        for confidence in (0.87, 0.951):
            with pytest.raises(ConfigurationError):
                wilson_interval(1, 10, confidence=confidence)

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=200),
    )
    def test_interval_contains_point_estimate(self, successes, total):
        successes = min(successes, total)
        low, high = wilson_interval(successes, total)
        assert low <= successes / total <= high


class TestBootstrap:
    def test_contains_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0] * 20
        low, high = bootstrap_interval(values, resamples=500)
        assert low < 3.0 < high

    def test_deterministic_per_seed(self):
        values = list(np.random.default_rng(1).normal(0, 1, 50))
        a = bootstrap_interval(values, seed=7, resamples=200)
        b = bootstrap_interval(values, seed=7, resamples=200)
        assert a == b

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            bootstrap_interval([])


class TestEdgeCases:
    """Empty, all-failing and single-chip populations."""

    def test_wilson_rejects_empty_population(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(0, 0)

    def test_wilson_single_chip(self):
        low, high = wilson_interval(1, 1)
        assert low < 1.0
        assert high == 1.0
        low, high = wilson_interval(0, 1)
        assert low == 0.0
        assert high > 0.0

    def test_bootstrap_rejects_empty_values(self):
        with pytest.raises(ConfigurationError):
            bootstrap_replicates([])

    def test_bootstrap_rejects_bad_resamples_and_start(self):
        with pytest.raises(ConfigurationError):
            bootstrap_replicates([1.0], resamples=0)
        with pytest.raises(ConfigurationError):
            bootstrap_replicates([1.0], start=-1)

    def test_bootstrap_single_value_is_degenerate(self):
        stats = bootstrap_replicates([2.5], resamples=50)
        assert np.all(stats == 2.5)
        low, high = bootstrap_interval([2.5], resamples=50)
        assert low == high == 2.5

    def test_all_failing_population(self):
        """Every chip fails and no scheme saves any: yield interval hugs
        zero, loss reduction hugs zero."""
        chips = [make_chip([2.0, 2.0, 2.0, 2.0]) for _ in range(30)]
        pop = make_population(chips)
        scheme = _NeverSaves()
        low, high = scheme_yield_interval(pop, scheme)
        assert low == 0.0
        assert high < 0.2
        low, high = loss_reduction_interval(pop, scheme, resamples=100)
        assert low == high == 0.0

    def test_loss_reduction_rejects_no_failures(self):
        chips = [make_chip([0.9, 0.9, 0.9, 0.9]) for _ in range(5)]
        pop = make_population(chips)
        with pytest.raises(ConfigurationError):
            loss_reduction_interval(pop, _NeverSaves())


class TestPopulationIntervals:
    @pytest.fixture(scope="class")
    def pop(self):
        return YieldStudy(seed=2006, count=400).run()

    def test_yield_interval_brackets_point(self, pop):
        breakdown = pop.breakdown([Hybrid()])
        low, high = scheme_yield_interval(pop, Hybrid())
        assert low < breakdown.yield_with("Hybrid") < high
        assert high - low < 0.08  # a few hundred chips pin it reasonably

    def test_yapd_and_hybrid_intervals_ordered(self, pop):
        yapd = scheme_yield_interval(pop, YAPD())
        hybrid = scheme_yield_interval(pop, Hybrid())
        assert hybrid[1] >= yapd[1]

    def test_loss_reduction_interval(self, pop):
        breakdown = pop.breakdown([Hybrid()])
        low, high = loss_reduction_interval(pop, Hybrid(), resamples=300)
        assert low < breakdown.loss_reduction("Hybrid") < high
