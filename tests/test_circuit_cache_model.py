"""Tests for the whole-cache circuit model and its organisation."""

import numpy as np
import pytest

from repro.circuit import (
    CacheCircuitModel,
    CacheOrganization,
    PAPER_ORGANIZATION,
    TECH45,
)
from repro.circuit.columnar import (
    CircuitColumns,
    evaluate_population,
    evaluate_population_pair,
    left_sum,
)
from repro.core import units
from repro.core.errors import ConfigurationError
from repro.variation.columnar import (
    ColumnarPopulation,
    ColumnarPopulationSampler,
)
from repro.variation.parameters import TABLE1
from repro.variation.sampling import CacheVariationMap, CacheVariationSampler
from repro.yieldmodel.analysis import YieldStudy
from repro.yieldmodel.constraints import ConstraintPolicy

from oracles.circuit import (
    CacheCircuitResult,
    WayCircuitResult,
    bitline_delay,
    cell_leakage,
    circuit,
    decoder_delay,
    from_circuits,
    senseamp_delay,
)
from oracles.classify import (
    band_array_leakage,
    critical_band,
    delay_without_band,
    total_peripheral_leakage,
)
from oracles.sampling import columnar_chip

NOMINAL = TABLE1.nominal()


def _evaluate(
    model: CacheCircuitModel, cvmap: CacheVariationMap
) -> CacheCircuitResult:
    """One sampled cache through the kernel, as a per-chip result."""
    return circuit(
        evaluate_population(model, ColumnarPopulation.from_maps([cvmap])), 0
    )


def _nominal(model: CacheCircuitModel) -> CacheCircuitResult:
    """The model's one-row nominal cache as a per-chip result."""
    return circuit(model.nominal(), 0)


def _population(seed: int, count: int) -> CircuitColumns:
    """Regular-organisation columns of chips ``[0, count)`` of ``seed``."""
    population = ColumnarPopulationSampler(
        CacheVariationSampler()
    ).sample_range(seed, 0, count)
    regular, _ = evaluate_population_pair(
        CacheCircuitModel(), CacheCircuitModel(hyapd=True), population
    )
    return regular


class TestOrganization:
    """Pin the paper's Section 3 cache organisation."""

    def test_capacity_is_16KB(self):
        assert PAPER_ORGANIZATION.capacity_bytes == 16 * units.KB

    def test_paper_structure(self):
        org = PAPER_ORGANIZATION
        assert org.num_ways == 4
        assert org.banks_per_way == 4
        assert org.rows_per_bank == 64
        assert org.cols_per_bank == 128
        assert org.bitline_segments == 2
        assert org.block_bytes == 32

    def test_bitline_segment_rows(self):
        assert PAPER_ORGANIZATION.rows_per_segment == 32

    def test_bands_equal_banks(self):
        assert PAPER_ORGANIZATION.num_bands == 4

    def test_global_wire_length_grows_with_band(self):
        org = PAPER_ORGANIZATION
        lengths = [
            org.global_wire_length(b, TECH45.cell_height)
            for b in range(org.num_bands)
        ]
        assert lengths == sorted(lengths)
        assert lengths[3] > lengths[0]

    def test_global_wire_rejects_bad_band(self):
        with pytest.raises(ValueError):
            PAPER_ORGANIZATION.global_wire_length(4, TECH45.cell_height)

    def test_invalid_organisation(self):
        with pytest.raises(ConfigurationError):
            CacheOrganization(rows_per_bank=63)
        with pytest.raises(ConfigurationError):
            CacheOrganization(bitline_segments=3)


class TestStageModels:
    def test_decoder_delay_positive(self):
        assert decoder_delay(NOMINAL, TECH45) > 0

    def test_bitline_delay_positive(self):
        assert bitline_delay(NOMINAL, TECH45, PAPER_ORGANIZATION) > 0

    def test_senseamp_delay_positive(self):
        assert senseamp_delay(NOMINAL, TECH45) > 0

    def test_cell_leakage_magnitude(self):
        """A low-Vt 45 nm cell leaks tens of nA."""
        leak = cell_leakage(NOMINAL, TECH45)
        assert 1e-9 < leak < 1e-6


class TestNominalModel:
    def test_nominal_delay_plausible(self):
        delay = CacheCircuitModel().nominal().access_delays[0]
        assert 200 * units.PS < delay < 2 * units.NS

    def test_nominal_symmetric_across_ways(self):
        delays = CacheCircuitModel().nominal().way_delays[0].tolist()
        assert all(d == pytest.approx(delays[0]) for d in delays)

    def test_far_band_is_critical(self):
        """With uniform parameters the farthest bank's path is slowest."""
        way = _nominal(CacheCircuitModel()).ways[0]
        assert critical_band(way) == PAPER_ORGANIZATION.num_bands - 1
        assert list(way.band_delays) == sorted(way.band_delays)

    def test_nominal_leakage_plausible(self):
        """A 16 KB low-Vt L1 leaks milliwatts at 45 nm."""
        leak = CacheCircuitModel().nominal().total_leakage[0]
        assert 1e-3 < leak < 1.0

    def test_peripheral_fraction_small(self):
        nominal = _nominal(CacheCircuitModel())
        fraction = total_peripheral_leakage(nominal) / nominal.total_leakage
        assert 0.02 < fraction < 0.20

    def test_hyapd_overhead_exact(self):
        regular = CacheCircuitModel(hyapd=False).nominal().access_delays[0]
        horizontal = CacheCircuitModel(hyapd=True).nominal().access_delays[0]
        assert horizontal / regular == pytest.approx(
            1 + TECH45.hyapd_delay_overhead
        )

    def test_hyapd_leakage_unchanged(self):
        regular = CacheCircuitModel(hyapd=False).nominal().total_leakage[0]
        horizontal = CacheCircuitModel(hyapd=True).nominal().total_leakage[0]
        assert horizontal == pytest.approx(regular)


class TestEvaluatedChips:
    def test_evaluate_shape(self):
        sampler = CacheVariationSampler()
        model = CacheCircuitModel()
        result = _evaluate(model, columnar_chip(sampler, seed=1, chip_id=0))
        assert result.num_ways == 4
        assert result.num_bands == 4
        assert result.access_delay == max(result.way_delays)
        assert result.total_leakage == pytest.approx(sum(result.way_leakages))

    def test_evaluate_deterministic(self):
        sampler = CacheVariationSampler()
        model = CacheCircuitModel()
        cvmap = columnar_chip(sampler, seed=1, chip_id=0)
        assert _evaluate(model, cvmap) == _evaluate(model, cvmap)

    def test_band_mismatch_rejected(self):
        sampler = CacheVariationSampler(num_bands=2)
        model = CacheCircuitModel()
        with pytest.raises(ConfigurationError):
            _evaluate(model, columnar_chip(sampler, seed=1, chip_id=0))

    def test_way_mismatch_rejected(self):
        sampler = CacheVariationSampler(num_ways=2)
        with pytest.raises(ConfigurationError, match="2 ways"):
            _evaluate(CacheCircuitModel(), columnar_chip(sampler, 1, 0))
        with pytest.raises(ConfigurationError, match="4 ways"):
            YieldStudy(
                seed=1, count=10, organization=CacheOrganization(num_ways=8)
            ).run()

    def test_delay_without_band_reduces(self):
        sampler = CacheVariationSampler()
        result = _evaluate(
            CacheCircuitModel(), columnar_chip(sampler, seed=2, chip_id=3)
        )
        for way in result.ways:
            critical = critical_band(way)
            assert delay_without_band(way, critical) <= way.delay

    def test_band_array_leakage_sums(self):
        sampler = CacheVariationSampler()
        result = _evaluate(
            CacheCircuitModel(), columnar_chip(sampler, seed=2, chip_id=3)
        )
        total_bands = sum(
            band_array_leakage(result, b) for b in range(result.num_bands)
        )
        array_total = sum(way.array_leakage for way in result.ways)
        assert total_bands == pytest.approx(array_total)

    def test_residuals_scale_delay(self):
        sampler = CacheVariationSampler(
            path_residual_sigma=0.0, outlier_band_prob=0.0
        )
        cvmap = columnar_chip(sampler, seed=3, chip_id=0)
        base = _evaluate(CacheCircuitModel(), cvmap)
        boosted = cvmap.ways[0]._replace(band_residuals=(2.0, 1.0, 1.0, 1.0))
        cvmap = cvmap._replace(ways=(boosted,) + cvmap.ways[1:])
        scaled = _evaluate(CacheCircuitModel(), cvmap)
        assert scaled.ways[0].band_delays[0] == pytest.approx(
            2 * base.ways[0].band_delays[0]
        )
        assert scaled.ways[0].band_delays[1] == pytest.approx(
            base.ways[0].band_delays[1]
        )


class TestVariationSensitivity:
    """The calibrated model reproduces the paper's cited magnitudes."""

    def test_access_delay_spread(self):
        """Paper Section 1 cites ~30% frequency variation; the calibrated
        model's access-delay spread is of that order (sigma/mean within
        10-60%, fat right tail)."""
        delays = _population(seed=4, count=300).access_delays
        ratio = float(np.std(delays) / np.mean(delays))
        assert 0.10 < ratio < 0.60

    def test_leakage_spread_is_wide(self):
        """Leakage spans multiples of its mean (paper Figures 1/8)."""
        leaks = _population(seed=4, count=300).total_leakage
        assert max(leaks) / float(np.mean(leaks)) > 3.0

    def test_leakage_delay_anticorrelation(self):
        circuits = _population(seed=5, count=200)
        delays, leaks = circuits.access_delays, circuits.total_leakage
        corr = float(np.corrcoef(np.log(leaks), delays)[0, 1])
        assert corr < -0.5


class TestLeftToRightSums:
    """Leakage totals and population limits add left to right.

    Since Python 3.12 ``sum()`` of floats is compensated. For these
    positive terms the two orders differ — ``1.0 + 1e-16 + 1e-16`` is
    ``1.0`` left to right and ``1.0000000000000002`` compensated — and a
    population's results must not depend on the interpreter. The
    expected values are the left-to-right ones every interpreter
    computed before 3.12.
    """

    TERMS = (1.0, 1e-16, 1e-16)

    def _chip(self) -> CacheCircuitResult:
        ways = tuple(
            WayCircuitResult(
                way=w,
                band_delays=(1e-9, 1e-9, 1e-9),
                band_leakage=self.TERMS if w == 0 else (term, 0.0, 0.0),
                peripheral_leakage=term,
            )
            for w, term in enumerate(self.TERMS)
        )
        return CacheCircuitResult(chip_id=0, ways=ways)

    def test_circuit_totals(self):
        chip = self._chip()
        assert chip.ways[0].array_leakage == 1.0
        assert chip.ways[0].leakage == 2.0
        assert band_array_leakage(chip, 0) == 1.0
        assert total_peripheral_leakage(chip) == 1.0
        # way leakages 2.0, 2e-16, 2e-16: the last two vanish in turn.
        assert chip.total_leakage == 2.0

    def test_columns_match_the_circuit(self):
        chip = self._chip()
        columns = from_circuits([chip])
        assert columns.way_leakages[0].tolist() == list(chip.way_leakages)
        assert columns.total_leakage[0] == chip.total_leakage
        assert left_sum(columns.band_leakage, 1)[0, 0] == \
            band_array_leakage(chip, 0)
        assert left_sum(columns.peripheral_leakage, 1)[0] == \
            total_peripheral_leakage(chip)

    def test_derived_limits(self):
        constraints = ConstraintPolicy("sum", 1.0, 3.0).derive(
            self.TERMS, self.TERMS
        )
        assert constraints.leakage_limit == 3.0 * (1.0 / 3)
