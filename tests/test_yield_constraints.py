"""Tests for yield constraints, policies, and the cycles mapping."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.yieldmodel.classify import ChipColumns, cycles_for_delays
from repro.yieldmodel.constraints import (
    BASE_ACCESS_CYCLES,
    ConstraintPolicy,
    NOMINAL_POLICY,
    RELAXED_POLICY,
    STRICT_POLICY,
    YieldConstraints,
)


class TestPolicies:
    """Pin the paper's Section 5.1 constraint policies."""

    def test_nominal(self):
        assert NOMINAL_POLICY.delay_sigma_multiple == 1.0
        assert NOMINAL_POLICY.leakage_mean_multiple == 3.0

    def test_relaxed(self):
        assert RELAXED_POLICY.delay_sigma_multiple == 1.5
        assert RELAXED_POLICY.leakage_mean_multiple == 4.0

    def test_strict(self):
        assert STRICT_POLICY.delay_sigma_multiple == 0.5
        assert STRICT_POLICY.leakage_mean_multiple == 2.0

    def test_derive(self):
        delays = [1.0, 2.0, 3.0, 4.0]  # mean 2.5, sigma ~1.118
        leaks = [1.0, 1.0, 2.0, 4.0]  # mean 2.0
        constraints = NOMINAL_POLICY.derive(delays, leaks)
        assert constraints.delay_limit == pytest.approx(2.5 + 1.118, abs=1e-3)
        assert constraints.leakage_limit == pytest.approx(6.0)

    def test_strict_is_tighter_than_relaxed(self):
        delays = [1.0, 1.1, 0.9, 1.2, 0.8]
        leaks = [1.0, 2.0, 1.5, 0.5, 1.0]
        strict = STRICT_POLICY.derive(delays, leaks)
        relaxed = RELAXED_POLICY.derive(delays, leaks)
        assert strict.delay_limit < relaxed.delay_limit
        assert strict.leakage_limit < relaxed.leakage_limit

    def test_derive_needs_population(self):
        with pytest.raises(ConfigurationError):
            NOMINAL_POLICY.derive([1.0], [1.0])

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            ConstraintPolicy("bad", 0.0, 1.0)


class TestCyclesMapping:
    CONSTRAINTS = YieldConstraints(delay_limit=1.0, leakage_limit=1.0)

    def _cycles(self, delay: float) -> int:
        return int(cycles_for_delays(np.array([delay]), self.CONSTRAINTS)[0])

    def _chip(self, delay: float, leakage: float) -> ChipColumns:
        """A one-way, one-band chip of the given delay and leakage."""
        circuits = CircuitColumns(
            [0], np.array([[[delay]]]), np.array([[[leakage]]]),
            np.zeros((1, 1)),
        )
        return ChipColumns(circuits, self.CONSTRAINTS)

    def test_within_limit_is_base(self):
        assert self._cycles(0.5) == BASE_ACCESS_CYCLES
        assert self._cycles(1.0) == BASE_ACCESS_CYCLES

    def test_five_cycle_band(self):
        """One extra cycle buys one extra quarter of the limit."""
        assert self._cycles(1.01) == 5
        assert self._cycles(1.25) == 5

    def test_six_cycle_band(self):
        assert self._cycles(1.26) == 6
        assert self._cycles(1.50) == 6

    def test_deep_tail(self):
        assert self._cycles(2.0) == 8

    def test_rejects_non_positive_delay(self):
        with pytest.raises(ConfigurationError):
            self._cycles(0.0)

    def test_meets_predicates(self):
        """The limits are inclusive: a chip exactly at one meets it."""
        assert not self._chip(1.0, 1.0).delay_violations[0, 0]
        assert self._chip(1.0001, 1.0).delay_violations[0, 0]
        assert not self._chip(1.0, 1.0).leakage_violation[0]
        assert self._chip(1.0, 1.1).leakage_violation[0]
        assert self._chip(1.0, 1.0).passes[0]

    @given(st.floats(min_value=1e-6, max_value=10.0))
    def test_cycles_monotone_and_bounded_below(self, delay):
        cycles = self._cycles(delay)
        assert cycles >= BASE_ACCESS_CYCLES
        # one more quarter-limit never decreases the cycle count
        assert self._cycles(delay + 0.25) >= cycles

    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_cycles_give_enough_time(self, delay):
        """cycles * (limit/4) always covers the delay."""
        cycles = self._cycles(delay)
        assert cycles * (1.0 / BASE_ACCESS_CYCLES) >= delay - 1e-9
