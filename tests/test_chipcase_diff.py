"""Differential battery: cached ``ChipCase`` facts vs the uncached original.

``ChipCase`` — the one-chip view of a population row — computes each
chip's leakage facts (``way_leakages``, ``total_leakage``,
``leakage_violation``, ``passes``) once per case. The original class in
``tests/oracles/classify.py`` recomputes them on every read. Over 144
seeded case lists (the one-chip views of 108 study populations: regular
and H-YAPD architectures; nominal, relaxed and strict limits; 2, 4 and 8
ways; plus 36 lists of the ragged random circuits of
``test_property_codec.py``) this battery asserts that:

* every fact equals the oracle's, whatever order the facts are first
  read in;
* every scheme in :mod:`repro.schemes` returns an equal
  :class:`~repro.schemes.base.RescueOutcome`;
* the sensor study's measured columns hold the per-chip measured
  cases' facts and readings, every failing row is decided as the oracle
  scheme rescues its measured case, and the columnar
  ``yield_with_sensor`` equals the per-chip one, on the study
  populations and the ragged seeds' rectangular populations;
* ``breakdown``, ``configuration_census``, ``scatter`` and
  ``reconstrained`` give results equal to the original per-chip
  population's, on the study populations and on the rectangular
  populations inside each ragged seed (ragged populations themselves
  have no columnar form).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from oracles import schemes as oracle_schemes
from oracles.classify import ChipCase as OracleCase
from oracles.classify import MeasuredChipCase as OracleMeasured
from oracles.classify import PopulationResult as OraclePopulation
from oracles.classify import yield_with_sensor as oracle_yield_with_sensor
from repro.circuit.columnar import CircuitColumns
from repro.circuit.organization import CacheOrganization
from repro.schemes import (
    HYAPD,
    VACA,
    YAPD,
    AdaptiveHybrid,
    DeepVACA,
    Hybrid,
    HybridHorizontal,
    NaiveBinning,
)
from repro.schemes.sensors import (
    LeakageSensor,
    measured_failing,
    yield_with_sensor,
)
from repro.variation.sampling import CacheVariationSampler
from repro.variation.spatial import MeshLayout
from repro.yieldmodel.analysis import PopulationResult, YieldStudy
from repro.yieldmodel.classify import ChipCase
from repro.yieldmodel.constraints import (
    NOMINAL_POLICY,
    RELAXED_POLICY,
    STRICT_POLICY,
    YieldConstraints,
)
from test_property_codec import _random_circuit
from test_scheme_diff import _expected, _row

#: Every derived fact a scheme or table reads from a case.
FACTS = (
    "way_leakages",
    "total_leakage",
    "leakage_violation",
    "delay_violation",
    "passes",
    "way_cycles",
    "delay_violating_ways",
    "loss_reason",
    "configuration",
)

POLICIES = (NOMINAL_POLICY, RELAXED_POLICY, STRICT_POLICY)
#: (ways, mesh rows, mesh cols): the associativity sweep's layouts.
LAYOUTS = ((2, 1, 2), (4, 2, 2), (8, 2, 4))
CHIPS = 24
STUDY_SEEDS = range(108)
RAGGED_SEEDS = range(36)

SENSORS = (
    LeakageSensor(relative_noise=0.0, quantisation_levels=0),
    LeakageSensor(relative_noise=0.05, quantisation_levels=32, seed=3),
    LeakageSensor(relative_noise=0.25, quantisation_levels=8, seed=11),
)


def _degradation(way_cycles):
    """A deterministic estimator for AdaptiveHybrid's choice."""
    disabled = sum(1 for c in way_cycles if c is None)
    slow = sum(1 for c in way_cycles if c is not None and c > 4)
    return 0.011 * disabled + 0.004 * slow


def _schemes():
    return [
        YAPD(),
        HYAPD(),
        HYAPD(peripheral_save_fraction=0.0),
        VACA(),
        DeepVACA(),
        Hybrid(),
        HybridHorizontal(),
        NaiveBinning(),
        NaiveBinning(target_cycles=6),
        AdaptiveHybrid(_degradation),
    ]


def _study_population(seed: int) -> PopulationResult:
    ways, rows, cols = LAYOUTS[seed % 3]
    return YieldStudy(
        seed=seed,
        count=CHIPS,
        policy=POLICIES[(seed // 3) % 3],
        sampler=CacheVariationSampler(
            mesh=MeshLayout(rows=rows, cols=cols), num_ways=ways
        ),
        organization=CacheOrganization(num_ways=ways),
    ).run()


def _study_cases(seed: int):
    """(regular cases, H-YAPD cases) as one-chip views of a study."""
    pop = _study_population(seed)
    return (
        [pop.case(i) for i in range(pop.population)],
        [pop.case(i, horizontal=True) for i in range(pop.population)],
    )


def _ragged_cases(seed: int):
    """(cases, h_cases) of random circuits whose ways and bands vary
    from chip to chip; no rectangular population holds them."""
    rng = random.Random(seed)
    constraints = YieldConstraints(
        delay_limit=rng.uniform(1e-9, 3e-9),
        leakage_limit=rng.uniform(0.2, 2.0),
    )
    return (
        [
            ChipCase(_random_circuit(rng, i), constraints)
            for i in range(CHIPS)
        ],
        [
            ChipCase(_random_circuit(rng, i), constraints)
            for i in range(CHIPS)
        ],
    )


def _ragged_populations(seed: int):
    """The rectangular populations among a ragged seed's chips.

    Groups every circuit of :func:`_ragged_cases` by (ways, bands,
    architecture) and holds each group of two or more chips against the
    seed's limits, as both architectures of one population.
    """
    cases, h_cases = _ragged_cases(seed)
    groups = {}
    for case in cases + h_cases:
        circuit = case.circuit
        shape = (circuit.num_ways, circuit.num_bands, circuit.hyapd)
        groups.setdefault(shape, []).append(circuit)
    populations = []
    for shape in sorted(groups):
        circuits = [
            circuit._replace(chip_id=index)
            for index, circuit in enumerate(groups[shape])
        ]
        if len(circuits) < 2:
            continue
        columns = CircuitColumns.from_circuits(circuits)
        populations.append(
            PopulationResult(
                constraints=cases[0].constraints,
                regular=columns,
                horizontal=columns,
                policy=POLICIES[seed % 3],
            )
        )
    return populations


def _populations():
    params = [
        pytest.param(_study_cases, seed, id=f"study-{seed}")
        for seed in STUDY_SEEDS
    ]
    params += [
        pytest.param(_ragged_cases, seed, id=f"ragged-{seed}")
        for seed in RAGGED_SEEDS
    ]
    return params


def _fresh(case) -> ChipCase:
    """A production case with nothing read yet."""
    return ChipCase(circuit=case.circuit, constraints=case.constraints)


def _oracle(case) -> OracleCase:
    return OracleCase(circuit=case.circuit, constraints=case.constraints)


@pytest.mark.parametrize("build,seed", _populations())
def test_cached_facts_match_oracle(build, seed):
    cases, h_cases = build(seed)
    rng = random.Random(seed)
    schemes = _schemes()
    assert any(not case.passes for case in cases + h_cases)
    for case in cases + h_cases:
        oracle = _oracle(case)
        # Facts in a random first-read order, then again from the cache.
        fresh = _fresh(case)
        for fact in rng.sample(FACTS, len(FACTS)):
            assert getattr(fresh, fact) == getattr(oracle, fact), fact
        for fact in FACTS:
            assert getattr(fresh, fact) == getattr(oracle, fact), fact
        for way in range(case.circuit.num_ways):
            assert fresh.leakage_after_disabling_way(way) == \
                oracle.leakage_after_disabling_way(way)
        assert fresh.max_leakage_way() == oracle.max_leakage_way()
        # Every scheme, first on an unread case, then on a read one.
        for scheme in schemes:
            expected = scheme.rescue(oracle)
            assert scheme.rescue(_fresh(case)) == expected, scheme.name
            assert scheme.rescue(fresh) == expected, scheme.name
        # Cached facts stay out of equality and hashing.
        assert fresh == _fresh(case) and hash(fresh) == hash(_fresh(case))


def _population_params():
    """Study populations, and each ragged seed's rectangular groups."""
    params = [
        pytest.param(lambda seed: [_study_population(seed)], seed,
                     id=f"study-{seed}")
        for seed in STUDY_SEEDS
    ]
    params += [
        pytest.param(_ragged_populations, seed, id=f"ragged-{seed}")
        for seed in RAGGED_SEEDS
    ]
    return params


def _oracle_schemes():
    """:func:`_schemes` as the per-chip oracles (AdaptiveHybrid is its
    own), in the same order."""
    o = oracle_schemes
    return [
        o.YAPD(),
        o.HYAPD(),
        o.HYAPD(0.0),
        o.VACA(),
        o.DeepVACA(),
        o.Hybrid(),
        o.HybridHorizontal(),
        o.NaiveBinning(),
        o.NaiveBinning(target_cycles=6),
        AdaptiveHybrid(_degradation),
    ]


@pytest.mark.parametrize("build,seed", _population_params()[::6])
def test_measured_cases_match_oracle(build, seed):
    """The sensor study on measured columns vs the per-chip measured
    cases: readings, decisions and the rescue counts."""
    for pop in build(seed):
        chips = pop.chips()
        oracle_cases = [
            OracleCase(pop.regular.circuit(i), pop.constraints)
            for i in range(pop.population)
        ]
        for sensor in SENSORS:
            failing, measured = measured_failing(chips, sensor)
            expected = [
                OracleMeasured(oracle_cases[index], sensor)
                for index in failing.tolist()
            ]
            for row, case in enumerate(expected):
                for fact in FACTS:
                    assert getattr(measured.case(row), fact) == \
                        getattr(case, fact), fact
                assert measured.leakiest_way[row] == case.max_leakage_way()
                assert measured.way_gated_leakage[row].tolist() == [
                    case.leakage_after_disabling_way(way)
                    for way in range(case.circuit.num_ways)
                ]
            for scheme, oracle in zip(_schemes(), _oracle_schemes()):
                assert yield_with_sensor(chips, scheme, sensor) == \
                    oracle_yield_with_sensor(oracle_cases, oracle, sensor)
                decided = scheme.decide(measured)
                for row, case in enumerate(expected):
                    assert _row(decided, row) == \
                        _expected(oracle.rescue(case)), scheme.name


@pytest.mark.parametrize("build,seed", _population_params()[::3])
def test_population_results_match_oracle(build, seed):
    populations = build(seed)
    assert populations
    for pop in populations:
        expected = OraclePopulation.of(pop)
        for horizontal in (False, True):
            schemes = _schemes()
            assert pop.breakdown(schemes, horizontal) == \
                expected.breakdown(schemes, horizontal)
            for scheme in schemes:
                assert pop.configuration_census(scheme, horizontal) == \
                    expected.configuration_census(scheme, horizontal)
            assert pop.scatter(horizontal) == expected.scatter(horizontal)
        for policy in POLICIES:
            got = pop.reconstrained(policy)
            want = expected.reconstrained(policy)
            assert got.constraints == want.constraints
            assert got.regular is pop.regular
            assert got.horizontal is pop.horizontal
            assert got.breakdown(_schemes()) == want.breakdown(_schemes())


def test_chipcase_stays_a_frozen_two_field_dataclass():
    fields = tuple(f.name for f in dataclasses.fields(ChipCase))
    assert fields == ("circuit", "constraints")
    case = _study_population(1).case(0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.circuit = None
