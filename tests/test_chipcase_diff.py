"""Differential battery: cached ``ChipCase`` facts vs the uncached original.

``ChipCase`` computes each chip's leakage facts (``way_leakages``,
``total_leakage``, ``leakage_violation``, ``passes``) once per case. The
original class in ``tests/oracles/classify.py`` recomputes them on every
read. Over 144 seeded populations (regular and H-YAPD architectures;
nominal, relaxed and strict limits; 2, 4 and 8 ways; plus the ragged
random circuits of ``test_property_codec.py``) this battery asserts that:

* every fact equals the oracle's, whatever order the facts are first
  read in;
* every scheme in :mod:`repro.schemes` returns an equal
  :class:`~repro.schemes.base.RescueOutcome`, also through
  ``MeasuredChipCase`` and ``yield_with_sensor``;
* ``breakdown``, ``configuration_census``, ``scatter`` and
  ``reconstrained`` give equal results.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from oracles.classify import ChipCase as OracleCase
from oracles.classify import MeasuredChipCase as OracleMeasured
from oracles.classify import yield_with_sensor as oracle_yield_with_sensor
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
    MeasuredChipCase,
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


def _ragged_population(seed: int) -> PopulationResult:
    rng = random.Random(seed)
    constraints = YieldConstraints(
        delay_limit=rng.uniform(1e-9, 3e-9),
        leakage_limit=rng.uniform(0.2, 2.0),
    )
    return PopulationResult(
        constraints=constraints,
        cases=[
            ChipCase(_random_circuit(rng, i), constraints)
            for i in range(CHIPS)
        ],
        h_cases=[
            ChipCase(_random_circuit(rng, i), constraints)
            for i in range(CHIPS)
        ],
        policy=POLICIES[seed % 3],
    )


def _populations():
    params = [
        pytest.param(_study_population, seed, id=f"study-{seed}")
        for seed in STUDY_SEEDS
    ]
    params += [
        pytest.param(_ragged_population, seed, id=f"ragged-{seed}")
        for seed in RAGGED_SEEDS
    ]
    return params


def _fresh(case) -> ChipCase:
    """A production case with nothing read yet."""
    return ChipCase(circuit=case.circuit, constraints=case.constraints)


def _oracle(case) -> OracleCase:
    return OracleCase(circuit=case.circuit, constraints=case.constraints)


def _oracle_population(pop: PopulationResult) -> PopulationResult:
    return PopulationResult(
        constraints=pop.constraints,
        cases=[_oracle(case) for case in pop.cases],
        h_cases=[_oracle(case) for case in pop.h_cases],
        policy=pop.policy,
    )


@pytest.mark.parametrize("build,seed", _populations())
def test_cached_facts_match_oracle(build, seed):
    pop = build(seed)
    rng = random.Random(seed)
    schemes = _schemes()
    assert any(not case.passes for case in pop.cases + pop.h_cases)
    for case in pop.cases + pop.h_cases:
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


@pytest.mark.parametrize("build,seed", _populations()[::6])
def test_measured_cases_match_oracle(build, seed):
    pop = build(seed)
    oracle_cases = [_oracle(case) for case in pop.cases]
    for sensor in SENSORS:
        for scheme in _schemes():
            assert yield_with_sensor(pop.cases, scheme, sensor) == \
                oracle_yield_with_sensor(oracle_cases, scheme, sensor)
            for case, oracle in zip(pop.cases, oracle_cases):
                measured = MeasuredChipCase(_fresh(case), sensor)
                expected = OracleMeasured(oracle, sensor)
                for fact in FACTS:
                    assert getattr(measured, fact) == \
                        getattr(expected, fact), fact
                assert measured.max_leakage_way() == \
                    expected.max_leakage_way()
                for way in range(case.circuit.num_ways):
                    assert measured.leakage_after_disabling_way(way) == \
                        expected.leakage_after_disabling_way(way)
                assert scheme.rescue(measured) == scheme.rescue(expected)


@pytest.mark.parametrize("build,seed", _populations()[::3])
def test_population_results_match_oracle(build, seed):
    pop = build(seed)
    expected = _oracle_population(pop)
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
        assert got.cases == want.cases and got.h_cases == want.h_cases
        assert got.breakdown(_schemes()) == want.breakdown(_schemes())


def test_chipcase_stays_a_frozen_two_field_dataclass():
    fields = tuple(f.name for f in dataclasses.fields(ChipCase))
    assert fields == ("circuit", "constraints")
    case = _study_population(1).cases[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.circuit = None
