"""Differential tests: the columnar population path vs the oracles.

Production draws and evaluates populations one way only:
`ColumnarPopulationSampler`, `evaluate_population_pair` and
`ChipColumns`. These tests hold it, bit for bit, to the per-chip
references in ``tests/oracles/``: the scalar per-parameter sampler
(``sampling.py``) and the composed per-stage circuit physics
(``circuit.py``). 150 randomized (geometry, correlation-factor,
residual, seed) configurations go through the columnar sampler and the
scalar oracle, which must agree on every sampled parameter and leave
every chip's stream at the same position; a subset continues through
the circuit kernel at several temperatures and through the column-wise
classification, held to the per-chip ``ChipCase`` of
``tests/oracles/classify.py``; and a handful of end-to-end
configurations run the full :class:`YieldStudy` once in production and
once on the oracles alone, asserting equal yield breakdowns, loss-reason
censuses, scatter outputs and byte-identical store payloads.

The stream classes also pin the decoder to the per-chip ``Generator``
draws of ``tests/oracles/columnar.py``, including the chip job
``chip_shard`` (``{tag}-{chip_id}`` streams).
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.circuit.cache_model import CacheCircuitModel
from repro.circuit.columnar import (
    evaluate_population,
    evaluate_population_pair,
)
from repro.circuit.organization import CacheOrganization
from repro.core.errors import ConfigurationError
from repro.core.rng import spawn, stream_states
from repro.engine.chips import chip_shard
from repro.engine.codec import encode_population
from repro.circuit.technology import TECH45
from repro.variation.columnar import (
    ColumnarPopulation,
    ColumnarPopulationSampler,
    decode_program,
)
from repro.variation.gridmodel import GridVariationSampler
from repro.variation.parameters import TABLE1
from repro.variation.sampling import (
    CacheVariationMap,
    CacheVariationSampler,
    WayVariation,
)
from repro.variation.spatial import CorrelationFactors, MeshLayout
from repro.yieldmodel import analysis
from repro.yieldmodel.analysis import (
    PopulationResult,
    YieldStudy,
    derive_constraints,
)
from repro.yieldmodel.classify import ChipColumns, LossReason, config_key
from repro.yieldmodel.constraints import NOMINAL_POLICY

from oracles import circuit as circuit_oracle
from oracles import sampling as sampling_oracle
from oracles.circuit import circuit
from oracles.classify import ChipCase
from oracles.columnar import draw as oracle_draw
from tests.conftest import configuration, loss_reason

#: Meshes and the way counts placed on them: every relation to way 0
#: (origin / horizontal / vertical / diagonal) occurs, plus degenerate
#: single-way and high-associativity layouts.
_GEOMETRIES = (
    (1, 2, 1),
    (1, 2, 2),
    (2, 2, 2),
    (2, 2, 3),
    (2, 2, 4),
    (2, 3, 6),
    (2, 4, 8),
)


def _random_factors(rng: random.Random) -> CorrelationFactors:
    """Random correlation factors, with zero levels mixed in.

    A zero factor makes the reference skip that level's draws entirely,
    which the columnar sampler must reproduce (zeroed buffer slots) —
    so every level is zero in a fair share of the cases.
    """
    return CorrelationFactors(
        bit=0.01,
        row=0.0 if rng.random() < 0.25 else rng.uniform(0.02, 0.15),
        way_horizontal=0.0 if rng.random() < 0.15 else rng.uniform(0.1, 1.2),
        way_vertical=0.0 if rng.random() < 0.15 else rng.uniform(0.1, 1.2),
        way_diagonal=rng.uniform(0.2, 1.8),
        band=0.0 if rng.random() < 0.25 else rng.uniform(0.3, 1.8),
        inter_die=0.0 if rng.random() < 0.2 else rng.uniform(0.4, 1.3),
    )


def _make_sampler(rng: random.Random):
    """A randomized sampler configuration (geometry + factors + residuals)."""
    mesh_rows, mesh_cols, num_ways = rng.choice(_GEOMETRIES)
    low = rng.uniform(1.0, 1.3)
    return CacheVariationSampler(
        factors=_random_factors(rng),
        mesh=MeshLayout(rows=mesh_rows, cols=mesh_cols),
        num_ways=num_ways,
        num_bands=rng.choice((1, 2, 3, 4, 6)),
        clip_sigma=rng.choice((1.5, 2.0, 3.0, 4.0)),
        path_residual_sigma=0.0 if rng.random() < 0.2 else rng.uniform(0.05, 0.45),
        outlier_band_prob=0.0 if rng.random() < 0.2 else rng.uniform(0.01, 0.5),
        outlier_scale_range=(low, low + rng.uniform(0.2, 1.5)),
    )


def _make_cases(count: int):
    rng = random.Random(20060806)
    cases = []
    for index in range(count):
        sampler = _make_sampler(rng)
        seed = rng.randrange(1, 100_000)
        # Scattered, non-contiguous chip ids: the spawn discipline must
        # make any id subset reproduce the reference chips exactly.
        base = rng.randrange(0, 64)
        stride = rng.choice((1, 1, 1, 3, 7))
        chip_ids = tuple(base + i * stride for i in range(4))
        cases.append(
            pytest.param(
                sampler,
                seed,
                chip_ids,
                id=(
                    f"{index:03d}-w{sampler.num_ways}b{sampler.num_bands}"
                    f"-s{seed}"
                ),
            )
        )
    return cases


_CASES = _make_cases(150)

#: Subset carried through the circuit model and classification (the
#: sampler battery above already pins the inputs bit for bit).
_CIRCUIT_CASES = _CASES[::4]

#: Junction temperatures (K) of the circuit battery: room and hot
#: binning points around the 85 C calibration point, plus the
#: ``ablation_temperature`` sweep's own 300, 358 and 400 K.
_TEMPERATURES = (298.15, 300.0, 358.0, 378.15, 400.0)


def _columns_for(sampler: CacheVariationSampler):
    return ColumnarPopulationSampler(sampler)


def _sample(sampler: CacheVariationSampler, seed: int, chip_ids):
    """Chips ``chip_ids`` of experiment ``seed`` as columns, any id
    subset: ``sample_range``'s draw and finalize steps over the
    ``chip-{id}`` streams."""
    columnar = _columns_for(sampler)
    raw = columnar.draw(seed, [f"chip-{chip_id}" for chip_id in chip_ids])
    return columnar.finalize(chip_ids, raw)


def _uniform_map(chip_id: int, params) -> CacheVariationMap:
    """A paper-geometry chip with ``params`` in every segment and no
    residuals (``nominal()``'s shape)."""
    ways = tuple(
        WayVariation(
            way=way, params=params, decoder=params, precharge=params,
            senseamp=params, outdriver=params, bands=(params,) * 4,
        )
        for way in range(4)
    )
    return CacheVariationMap(chip_id=chip_id, die=params, ways=ways)


class TestSamplerDifferential:
    """Headline battery: every sampled parameter, 150 configurations."""

    @pytest.mark.parametrize("sampler,seed,chip_ids", _CASES)
    def test_population_matches_reference(self, sampler, seed, chip_ids):
        population = _sample(sampler, seed, chip_ids)
        assert population.chip_ids == chip_ids
        for index, chip_id in enumerate(chip_ids):
            # NamedTuple equality: exact float comparison over the die
            # vector, every way/peripheral/band vector and the residuals.
            assert sampling_oracle.chip_map(population, index) == \
                sampling_oracle.sample_chip(sampler, seed, chip_id)

    @pytest.mark.parametrize(
        "sampler,seed,chip_ids", [_CASES[i] for i in range(0, 150, 15)]
    )
    def test_from_maps_inverts_chip_map(self, sampler, seed, chip_ids):
        population = _sample(sampler, seed, chip_ids)
        rebuilt = ColumnarPopulation.from_maps(
            [sampling_oracle.chip_map(population, i)
             for i in range(len(chip_ids))]
        )
        assert rebuilt.chip_ids == population.chip_ids
        assert rebuilt.has_residuals == population.has_residuals
        for name in (
            "die", "way_params", "peripherals", "bands", "band_residuals"
        ):
            assert getattr(rebuilt, name).tobytes() == \
                getattr(population, name).tobytes()
        # A one-chip range is the same chip as the population's row.
        assert sampling_oracle.columnar_chip(sampler, seed, chip_ids[1]) \
            == sampling_oracle.chip_map(population, 1)

    def test_from_maps_refuses_ragged_and_empty(self):
        maps = [
            sampling_oracle.columnar_chip(
                CacheVariationSampler(num_ways=ways), 1, 0
            )
            for ways in (4, 2)
        ]
        with pytest.raises(ConfigurationError):
            ColumnarPopulation.from_maps(maps)
        with pytest.raises(ConfigurationError):
            ColumnarPopulation.from_maps([])

    def test_sample_range_matches_labelled_draw(self):
        sampler = CacheVariationSampler()
        a = _columns_for(sampler).sample_range(11, 3, 9)
        b = _sample(sampler, 11, range(3, 9))
        assert a.chip_ids == b.chip_ids
        np.testing.assert_array_equal(a.bands, b.bands)
        np.testing.assert_array_equal(a.band_residuals, b.band_residuals)

    def test_chip_map_index_bounds(self):
        population = _columns_for(CacheVariationSampler()).sample_range(1, 0, 2)
        with pytest.raises(ConfigurationError):
            sampling_oracle.chip_map(population, 2)
        with pytest.raises(ConfigurationError):
            sampling_oracle.chip_map(population, -1)

    def test_invalid_ranges_rejected(self):
        columnar = _columns_for(CacheVariationSampler())
        with pytest.raises(ConfigurationError):
            columnar.sample_range(1, 5, 2)
        with pytest.raises(ConfigurationError):
            columnar.allocate(-1)



class TestCircuitDifferential:
    """Columns through the circuit kernel vs the composed physics."""

    @pytest.mark.parametrize("sampler,seed,chip_ids", _CIRCUIT_CASES)
    def test_pair_matches_per_chip(self, sampler, seed, chip_ids):
        org = CacheOrganization(
            num_ways=sampler.num_ways, banks_per_way=sampler.num_bands
        )
        population = _sample(sampler, seed, chip_ids)
        maps = [
            sampling_oracle.chip_map(population, i)
            for i in range(len(chip_ids))
        ]
        for temperature in _TEMPERATURES:
            tech = TECH45.replace(temperature=temperature)
            regular_model = CacheCircuitModel(tech=tech, org=org, hyapd=False)
            hyapd_model = CacheCircuitModel(tech=tech, org=org, hyapd=True)
            col_regular, col_hyapd = evaluate_population_pair(
                regular_model, hyapd_model, population
            )
            assert col_regular.chip_ids == col_hyapd.chip_ids == chip_ids
            assert (col_regular.hyapd, col_hyapd.hyapd) == (False, True)
            for index, cvmap in enumerate(maps):
                assert circuit(col_regular, index) == circuit_oracle.evaluate(
                    regular_model, cvmap
                )
                assert circuit(col_hyapd, index) == circuit_oracle.evaluate(
                    hyapd_model, cvmap
                )

    @pytest.mark.parametrize("hyapd", (False, True))
    @pytest.mark.parametrize("temperature", _TEMPERATURES)
    def test_one_chip_slices_match_composed(self, temperature, hyapd):
        """One chip and ``nominal`` are one-row populations of the kernel."""
        model = CacheCircuitModel(
            tech=TECH45.replace(temperature=temperature), hyapd=hyapd
        )
        cvmap = sampling_oracle.columnar_chip(CacheVariationSampler(), 9, 4)
        one = evaluate_population(model, ColumnarPopulation.from_maps([cvmap]))
        assert circuit(one, 0) == circuit_oracle.evaluate(model, cvmap)
        assert circuit(model.nominal(), 0) == circuit_oracle.evaluate(
            model, _uniform_map(-1, TABLE1.nominal())
        )

    @pytest.mark.parametrize("temperature", _TEMPERATURES)
    def test_floors_match_composed(self, temperature):
        """Every segment past the threshold, overdrive and wire-spacing
        floors, which sampled chips reach only in their tails."""
        nominal = TABLE1.nominal()
        maps = [
            _uniform_map(chip_id, params)
            for chip_id, params in enumerate((
                nominal._replace(lgate=nominal.lgate * 0.7),  # Vt floor
                nominal._replace(vt=0.88),  # overdrive floor
                nominal._replace(metal_width=0.45e-6),  # spacing floor
            ))
        ]
        tech = TECH45.replace(temperature=temperature)
        models = (
            CacheCircuitModel(tech=tech),
            CacheCircuitModel(tech=tech, hyapd=True),
        )
        columns = evaluate_population_pair(
            *models, ColumnarPopulation.from_maps(maps)
        )
        for model, circuits in zip(models, columns):
            for index, cvmap in enumerate(maps):
                assert circuit(circuits, index) == circuit_oracle.evaluate(
                    model, cvmap
                )

    @pytest.mark.parametrize("sampler,seed,chip_ids", _CIRCUIT_CASES[:10])
    def test_classification_matches_per_case(self, sampler, seed, chip_ids):
        """Column-wise classification == the oracle's per-chip cases."""
        org = CacheOrganization(
            num_ways=sampler.num_ways, banks_per_way=sampler.num_bands
        )
        regular_model = CacheCircuitModel(org=org, hyapd=False)
        hyapd_model = CacheCircuitModel(org=org, hyapd=True)
        population = _sample(sampler, seed, chip_ids)
        col_regular, col_hyapd = evaluate_population_pair(
            regular_model, hyapd_model, population
        )
        constraints = derive_constraints(NOMINAL_POLICY, col_regular)
        classified = ChipColumns(col_regular, constraints)
        maps = [
            sampling_oracle.sample_chip(sampler, seed, chip_id)
            for chip_id in chip_ids
        ]
        reference = [
            (
                circuit_oracle.evaluate(regular_model, cvmap),
                circuit_oracle.evaluate(hyapd_model, cvmap),
            )
            for cvmap in maps
        ]
        cases = [
            ChipCase(circuit=regular, constraints=constraints)
            for regular, _ in reference
        ]
        for index, case in enumerate(cases):
            assert tuple(classified.way_cycles[index].tolist()) == case.way_cycles
            assert config_key(
                tuple(classified.way_cycles[index].tolist())
            ) == case.configuration
            violating = tuple(
                np.flatnonzero(classified.delay_violations[index]).tolist()
            )
            assert violating == case.delay_violating_ways
            assert bool(classified.leakage_violation[index]) == (
                case.leakage_violation
            )
            assert bool(classified.passes[index]) == case.passes
            assert (
                col_regular.access_delays[index] == case.circuit.access_delay
            )
            assert (
                classified.total_leakage[index] == case.circuit.total_leakage
            )
            assert classified.way_gated_leakage[index].tolist() == [
                case.leakage_after_disabling_way(way)
                for way in range(case.circuit.num_ways)
            ]
            assert classified.leakiest_way[index] == case.max_leakage_way()
        pop = PopulationResult(constraints, col_regular, col_hyapd)
        census = {}
        for case in cases:
            if case.loss_reason is not LossReason.NONE:
                census[case.loss_reason] = census.get(case.loss_reason, 0) + 1
        assert pop.breakdown([]).base_counts == census
        passing = sum(1 for case in cases if case.passes)
        assert pop.breakdown([]).yield_with() == pytest.approx(
            passing / len(cases), abs=0.0
        )
        # H-YAPD columns held to the regular population's limits, as the
        # study does.
        h_classified = pop.chips(horizontal=True)
        h_cases = [
            ChipCase(circuit=hyapd, constraints=constraints)
            for _, hyapd in reference
        ]
        h_census = {}
        for index, case in enumerate(h_cases):
            assert (
                tuple(h_classified.way_cycles[index].tolist()) == case.way_cycles
            )
            assert bool(h_classified.passes[index]) == case.passes
            if case.loss_reason is not LossReason.NONE:
                h_census[case.loss_reason] = (
                    h_census.get(case.loss_reason, 0) + 1
                )
        assert pop.breakdown([], horizontal=True).base_counts == h_census


#: End-to-end study configurations: the default organisation plus a
#: non-default one (2 ways, 3 bands) and varied sampler settings.
def _study_configs():
    configs = []
    for index, (seed, count, org, sampler) in enumerate(
        [
            (2006, 48, CacheOrganization(), CacheVariationSampler()),
            (7, 56, CacheOrganization(), CacheVariationSampler(clip_sigma=2.5)),
            (
                11,
                40,
                CacheOrganization(),
                CacheVariationSampler(
                    factors=CorrelationFactors(band=0.0),
                    path_residual_sigma=0.0,
                    outlier_band_prob=0.0,
                ),
            ),
            (
                13,
                44,
                CacheOrganization(num_ways=2, banks_per_way=3),
                CacheVariationSampler(
                    num_ways=2, num_bands=3, outlier_band_prob=0.2
                ),
            ),
            (
                17,
                40,
                CacheOrganization(num_ways=8, banks_per_way=2),
                CacheVariationSampler(
                    mesh=MeshLayout(rows=2, cols=4), num_ways=8, num_bands=2
                ),
            ),
        ]
    ):
        configs.append(pytest.param(seed, count, org, sampler, id=f"study{index}"))
    return configs


class TestStudyDifferential:
    """A production YieldStudy vs one run on the oracles alone."""

    @pytest.mark.parametrize("seed,count,org,sampler", _study_configs())
    def test_population_result_identical(
        self, monkeypatch, seed, count, org, sampler
    ):
        def run():
            return YieldStudy(
                seed=seed, count=count, organization=org, sampler=sampler
            ).run()

        fast = run()
        # Scalar draws per chip and composed evaluation per chip, turned
        # into columns only at the end; the counts prove the oracles ran.
        drawn, evaluated = [], []

        def oracle_sample_range(self, seed, start, stop):
            drawn.append(stop - start)
            return sampling_oracle.sample_range(self, seed, start, stop)

        def oracle_evaluate(regular_model, hyapd_model, population):
            evaluated.append(len(population.chip_ids))
            return circuit_oracle.evaluate_population_pair(
                regular_model, hyapd_model, population
            )

        monkeypatch.setattr(
            ColumnarPopulationSampler, "sample_range", oracle_sample_range
        )
        monkeypatch.setattr(
            analysis, "evaluate_population_pair", oracle_evaluate
        )
        reference = run()
        assert sum(drawn) == sum(evaluated) == count
        for got, want in (
            (fast.regular, reference.regular),
            (fast.horizontal, reference.horizontal),
        ):
            for name in ("band_delays", "band_leakage", "peripheral_leakage"):
                assert not np.shares_memory(
                    getattr(got, name), getattr(want, name)
                )
        assert fast.constraints == reference.constraints
        assert fast.regular.chip_ids == reference.regular.chip_ids
        for horizontal in (False, True):
            got = fast.chips(horizontal)
            want = reference.chips(horizontal)
            for index in range(count):
                want_circuit = circuit(want.circuits, index)
                assert circuit(got.circuits, index) == want_circuit
                want_case = ChipCase(want_circuit, reference.constraints)
                assert loss_reason(got, index) == want_case.loss_reason
                assert configuration(got, index) == want_case.configuration
            assert got.way_cycles.tolist() == want.way_cycles.tolist()
            assert got.passes.tolist() == want.passes.tolist()
        assert fast.breakdown([]).base_counts == reference.breakdown([]).base_counts
        assert (
            fast.breakdown([], horizontal=True).base_counts
            == reference.breakdown([], horizontal=True).base_counts
        )
        assert fast.scatter() == reference.scatter()
        assert fast.scatter(horizontal=True) == reference.scatter(horizontal=True)
        # The store payload — what the engine persists — must be
        # byte-identical to the one the oracles produce.
        fast_bytes = json.dumps(encode_population(fast), sort_keys=True)
        ref_bytes = json.dumps(encode_population(reference), sort_keys=True)
        assert fast_bytes == ref_bytes

    def test_subclass_sampler_takes_columnar_path(self, monkeypatch):
        """A sampler subclass is a configuration like any other: its
        population is drawn by the columnar sampler."""

        class TweakedSampler(CacheVariationSampler):
            pass

        calls = []
        sample_range = ColumnarPopulationSampler.sample_range

        def spy(self, seed, start, stop):
            calls.append(type(self.sampler))
            return sample_range(self, seed, start, stop)

        monkeypatch.setattr(ColumnarPopulationSampler, "sample_range", spy)
        result = YieldStudy(seed=3, count=8, sampler=TweakedSampler()).run()
        assert calls == [TweakedSampler]
        stock = YieldStudy(seed=3, count=8).run()
        assert encode_population(result) == encode_population(stock)

    def test_other_samplers_refused(self):
        with pytest.raises(ConfigurationError, match="CacheVariationSampler"):
            YieldStudy(seed=3, count=8, sampler=GridVariationSampler())

    def test_non_positive_count_refused(self):
        for count in (0, -1):
            with pytest.raises(ConfigurationError):
                YieldStudy(seed=3, count=count)


class TestStreamIdentity:
    """The decoder reads each chip's stream exactly as far as the
    scalar oracle's generator does."""

    @pytest.mark.parametrize("sampler,seed,chip_ids", _CASES)
    def test_rng_left_at_same_position(self, sampler, seed, chip_ids):
        columnar = _columns_for(sampler)
        labels = [f"chip-{chip_id}" for chip_id in chip_ids]
        _, words_read, _, _, _ = decode_program(
            stream_states(seed, labels),
            columnar._op_kind,
            sampler.outlier_band_prob,
        )
        for chip_id, label, consumed in zip(
            chip_ids, labels, words_read.tolist()
        ):
            reference_rng = spawn(seed, label)
            sampling_oracle.sample_reference(
                sampler, reference_rng, chip_id=chip_id
            )
            # A word more or fewer leaves a different PCG64 state.
            advanced = spawn(seed, label).bit_generator
            advanced.advance(consumed)
            assert advanced.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize(
        "sampler,seed,chip_ids", [_CASES[i] for i in range(0, 150, 10)]
    )
    def test_raw_draws_match_oracle(self, sampler, seed, chip_ids):
        columnar = _columns_for(sampler)
        labels = [f"chip-{chip_id}" for chip_id in chip_ids]
        got = columnar.draw(seed, labels)
        want = oracle_draw(columnar, seed, labels)
        for name in ("head_z", "way_z", "residuals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestShardDifferential:
    """``chip_shard`` decodes its ``{tag}-{chip_id}`` streams exactly
    as the per-chip oracle draws them, before and after its stratum and
    shift transforms."""

    @pytest.mark.parametrize(
        "tag,start,stop,shift,stratum",
        [
            ("chip", 0, 16, None, None),
            ("pilot", 5, 29, None, (2, 5)),
            ("is", 40, 57, (0.5, -0.3, 0.2, 1.0, 0.0), None),
            ("strat-3", 3, 20, (0.1, 0.0, -0.4, 0.0, 0.3), (0, 4)),
        ],
    )
    def test_shard_matches_oracle_draws(
        self, monkeypatch, tag, start, stop, shift, stratum
    ):
        job = {
            "seed": 2006, "tag": tag, "start": start, "stop": stop,
            "shift": shift, "stratum": stratum,
        }
        got = chip_shard(job)
        monkeypatch.setattr(ColumnarPopulationSampler, "draw", oracle_draw)
        want = chip_shard(job)
        assert got[2].shape == (stop - start, 5)
        assert got[2].tobytes() == want[2].tobytes()
        for got_cols, want_cols in zip(got[:2], want[:2]):
            assert got_cols.chip_ids == want_cols.chip_ids
            for index in range(stop - start):
                assert circuit(got_cols, index) == circuit(want_cols, index)
