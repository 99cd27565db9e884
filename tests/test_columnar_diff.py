"""Differential tests: columnar Monte Carlo vs the per-chip reference.

The columnar population pipeline (`ColumnarPopulationSampler` +
`evaluate_population_pair` + `ChipColumns`) exists purely for speed
— it must be *bit-identical* to the per-chip path it bypasses.
These tests sweep 150 randomized (geometry, correlation-factor, residual,
seed) configurations through both samplers and assert equality of every
sampled parameter; a subset continues through the circuit model and the
column-wise classification; and a handful of end-to-end configurations
run the full :class:`YieldStudy` with ``REPRO_COLUMNAR`` on and off and
assert equal yield breakdowns, loss-reason censuses, scatter outputs and
byte-identical store payloads.

A final regression class locks the RNG stream contract: the columnar
decoder must read exactly as many words of a chip's stream as the
reference sampler's generator consumes, and the estimator layer's
``sample_shard`` (``{tag}-{chip_id}`` streams) must draw exactly what
the per-chip oracle in ``tests/oracles/columnar.py`` draws.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.circuit.cache_model import CacheCircuitModel
from repro.circuit.columnar import evaluate_population_pair
from repro.circuit.organization import CacheOrganization
from repro.core.errors import ConfigurationError
from repro.core.rng import spawn, stream_states
from repro.engine.codec import encode_population
from repro.variation.columnar import (
    ColumnarPopulationSampler,
    columnar_enabled,
    decode_program,
)
from repro.variation.sampling import CacheVariationSampler
from repro.variation.spatial import CorrelationFactors, MeshLayout
from repro.yieldmodel.analysis import (
    PopulationResult,
    YieldStudy,
    derive_constraints,
)
from repro.yieldmodel.classify import ChipCase, ChipColumns, config_key
from repro.yieldmodel.constraints import NOMINAL_POLICY
from repro.yieldmodel.estimators.sampling import sample_shard

from oracles.columnar import draw as oracle_draw

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


def _columns_for(sampler: CacheVariationSampler):
    return ColumnarPopulationSampler(sampler)


class TestSamplerDifferential:
    """Headline battery: every sampled parameter, 150 configurations."""

    @pytest.mark.parametrize("sampler,seed,chip_ids", _CASES)
    def test_population_matches_reference(self, sampler, seed, chip_ids):
        population = _columns_for(sampler).sample_population(seed, chip_ids)
        assert population.chip_ids == chip_ids
        for index, chip_id in enumerate(chip_ids):
            # NamedTuple equality: exact float comparison over the die
            # vector, every way/peripheral/band vector and the residuals.
            assert population.chip_map(index) == sampler.sample_chip(
                seed, chip_id
            )

    def test_sample_range_matches_sample_population(self):
        sampler = CacheVariationSampler()
        columnar = _columns_for(sampler)
        a = columnar.sample_range(11, 3, 9)
        b = columnar.sample_population(11, range(3, 9))
        assert a.chip_ids == b.chip_ids
        np.testing.assert_array_equal(a.bands, b.bands)
        np.testing.assert_array_equal(a.band_residuals, b.band_residuals)

    def test_chip_map_index_bounds(self):
        population = _columns_for(CacheVariationSampler()).sample_range(1, 0, 2)
        with pytest.raises(ConfigurationError):
            population.chip_map(2)
        with pytest.raises(ConfigurationError):
            population.chip_map(-1)

    def test_invalid_ranges_rejected(self):
        columnar = _columns_for(CacheVariationSampler())
        with pytest.raises(ConfigurationError):
            columnar.sample_range(1, 5, 2)
        with pytest.raises(ConfigurationError):
            columnar.allocate(-1)

    def test_unsupported_sampler_refuses(self):
        """Degenerate tables fall back to scalar draws in the reference;
        the columnar sampler must refuse them rather than diverge."""
        sampler = CacheVariationSampler()
        sampler._vectorised = False  # simulate a zero-sigma table
        columnar = _columns_for(sampler)
        assert not columnar.supported
        with pytest.raises(ConfigurationError):
            columnar.sample_population(1, range(4))


class TestCircuitDifferential:
    """Columns through the circuit model vs per-chip evaluate_pair."""

    @pytest.mark.parametrize("sampler,seed,chip_ids", _CIRCUIT_CASES)
    def test_pair_matches_per_chip(self, sampler, seed, chip_ids):
        org = CacheOrganization(
            num_ways=sampler.num_ways, banks_per_way=sampler.num_bands
        )
        regular_model = CacheCircuitModel(org=org, hyapd=False)
        hyapd_model = CacheCircuitModel(org=org, hyapd=True)
        population = _columns_for(sampler).sample_population(seed, chip_ids)
        col_regular, col_hyapd = evaluate_population_pair(
            regular_model, hyapd_model, population
        )
        assert col_regular.chip_ids == col_hyapd.chip_ids == chip_ids
        assert (col_regular.hyapd, col_hyapd.hyapd) == (False, True)
        for index, chip_id in enumerate(chip_ids):
            cvmap = sampler.sample_chip(seed, chip_id)
            ref_regular, ref_hyapd = regular_model.evaluate_pair(
                hyapd_model, cvmap
            )
            assert col_regular.circuit(index) == ref_regular
            assert col_hyapd.circuit(index) == ref_hyapd

    @pytest.mark.parametrize("sampler,seed,chip_ids", _CIRCUIT_CASES[:10])
    def test_classification_matches_per_case(self, sampler, seed, chip_ids):
        """Column-wise classification == per-ChipCase classification."""
        org = CacheOrganization(
            num_ways=sampler.num_ways, banks_per_way=sampler.num_bands
        )
        regular_model = CacheCircuitModel(org=org, hyapd=False)
        hyapd_model = CacheCircuitModel(org=org, hyapd=True)
        population = _columns_for(sampler).sample_population(seed, chip_ids)
        col_regular, col_hyapd = evaluate_population_pair(
            regular_model, hyapd_model, population
        )
        constraints = derive_constraints(NOMINAL_POLICY, col_regular)
        classified = ChipColumns(col_regular, constraints)
        reference = [
            regular_model.evaluate_pair(
                hyapd_model, sampler.sample_chip(seed, chip_id)
            )
            for chip_id in chip_ids
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
            if case.loss_reason.is_loss:
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
            if case.loss_reason.is_loss:
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
    """Full YieldStudy with REPRO_COLUMNAR on vs off."""

    @pytest.mark.parametrize("seed,count,org,sampler", _study_configs())
    def test_population_result_identical(
        self, monkeypatch, seed, count, org, sampler
    ):
        def run(flag: str):
            monkeypatch.setenv("REPRO_COLUMNAR", flag)
            study = YieldStudy(
                seed=seed, count=count, organization=org, sampler=sampler
            )
            if flag == "1":
                assert study._columnar_sampler() is not None
            return study.run()

        fast = run("1")
        reference = run("0")
        assert fast.constraints == reference.constraints
        assert fast.regular.chip_ids == reference.regular.chip_ids
        for horizontal in (False, True):
            got = fast.chips(horizontal)
            want = reference.chips(horizontal)
            for index in range(count):
                assert got.circuits.circuit(index) == \
                    want.circuits.circuit(index)
                got_case = fast.case(index, horizontal)
                want_case = reference.case(index, horizontal)
                assert got_case.loss_reason == want_case.loss_reason
                assert got_case.configuration == want_case.configuration
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
        # byte-identical whichever path computed it.
        fast_bytes = json.dumps(encode_population(fast), sort_keys=True)
        ref_bytes = json.dumps(encode_population(reference), sort_keys=True)
        assert fast_bytes == ref_bytes

    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv("REPRO_COLUMNAR", raising=False)
        assert columnar_enabled()
        monkeypatch.setenv("REPRO_COLUMNAR", "0")
        assert not columnar_enabled()
        monkeypatch.setenv("REPRO_COLUMNAR", "1")
        assert columnar_enabled()

    def test_subclass_sampler_falls_back(self, monkeypatch):
        """A sampler subclass could override the draw procedure the
        columnar sampler mirrors — the fast path must decline it."""

        class TweakedSampler(CacheVariationSampler):
            pass

        monkeypatch.setenv("REPRO_COLUMNAR", "1")
        study = YieldStudy(seed=3, count=8, sampler=TweakedSampler())
        assert study._columnar_sampler() is None
        result = study.run()  # reference path still works
        assert result.population == 8

    def test_degenerate_table_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR", "1")
        sampler = CacheVariationSampler()
        sampler._vectorised = False
        study = YieldStudy(seed=3, count=8, sampler=sampler)
        assert study._columnar_sampler() is None
        assert study.run().population == 8

    def test_columnar_cache_memoized(self):
        study = YieldStudy(seed=3, count=8)
        first = study._columnar_sampler()
        assert first is not None
        assert study._columnar_sampler() is first


class TestStreamIdentity:
    """The decoder reads each chip's stream exactly as far as the
    reference sampler's generator does."""

    @pytest.mark.parametrize(
        "sampler,seed,chip_ids", [_CASES[i] for i in (0, 17, 42, 85, 133)]
    )
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
            sampler.sample(reference_rng, chip_id=chip_id)
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

    def test_reference_and_fused_sampler_agree(self):
        """The fused sampler and its scalar oracle consume identically
        (pre-existing contract the columnar path builds on)."""
        sampler = CacheVariationSampler()
        a = spawn(5, "chip-0")
        b = spawn(5, "chip-0")
        assert sampler.sample(a) == sampler.sample_reference(b)
        assert a.standard_normal(8).tolist() == b.standard_normal(8).tolist()


class TestShardDifferential:
    """``sample_shard`` decodes its ``{tag}-{chip_id}`` streams exactly
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
        got = sample_shard(2006, tag, start, stop, shift, stratum)
        monkeypatch.setattr(ColumnarPopulationSampler, "draw", oracle_draw)
        want = sample_shard(2006, tag, start, stop, shift, stratum)
        assert got[2] == want[2]
        for got_cols, want_cols in zip(got[:2], want[:2]):
            assert got_cols.chip_ids == want_cols.chip_ids
            for index in range(stop - start):
                assert got_cols.circuit(index) == want_cols.circuit(index)
