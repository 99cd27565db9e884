"""Differential battery: classification rows vs the per-chip original.

``ChipColumns`` classifies a whole population once, one row per chip.
The original per-chip class, ``ChipCase`` in ``tests/oracles/classify.py``,
recomputes each fact from the circuit on every read, with its own scalar
delay-to-cycles and limit checks. Over 144 seeded case lists (the rows of
108 study populations: regular and H-YAPD architectures; nominal,
relaxed and strict limits; 2, 4 and 8 ways; plus 36 lists of the ragged
random circuits of ``test_property_codec.py``, each circuit a one-row
population) this battery asserts that:

* every row's way cycles, violating ways, leakage facts, verdict, loss
  bucket, configuration, gated leakage and leakiest way equal the
  oracle case's;
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

import random

import numpy as np
import pytest

from oracles import schemes as oracle_schemes
from oracles.circuit import circuit, from_circuits
from oracles.classify import ChipCase as OracleCase
from oracles.classify import MeasuredChipCase as OracleMeasured
from oracles.classify import PopulationResult as OraclePopulation
from oracles.classify import yield_with_sensor as oracle_yield_with_sensor
from repro.circuit.organization import CacheOrganization
from repro.schemes import (
    HYAPD,
    VACA,
    YAPD,
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
from repro.yieldmodel.classify import ChipColumns
from repro.yieldmodel.constraints import (
    NOMINAL_POLICY,
    RELAXED_POLICY,
    STRICT_POLICY,
    YieldConstraints,
)
from test_property_codec import _random_circuit
from test_scheme_diff import _expected
from tests.conftest import configuration, decision_row, loss_reason

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
    ]


def _oracle_schemes():
    """:func:`_schemes` as the per-chip oracles, in the same order."""
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


def _study_rows(seed: int):
    """A study's regular and H-YAPD classification columns."""
    pop = _study_population(seed)
    return [pop.chips(), pop.chips(horizontal=True)]


def _ragged_circuits(seed: int):
    """(limits, circuits, h_circuits) of random circuits whose ways and
    bands vary from chip to chip; no rectangular population holds them."""
    rng = random.Random(seed)
    constraints = YieldConstraints(
        delay_limit=rng.uniform(1e-9, 3e-9),
        leakage_limit=rng.uniform(0.2, 2.0),
    )
    return (
        constraints,
        [_random_circuit(rng, i) for i in range(CHIPS)],
        [_random_circuit(rng, i) for i in range(CHIPS)],
    )


def _ragged_rows(seed: int):
    """Every ragged circuit of a seed as a one-row population."""
    constraints, circuits, h_circuits = _ragged_circuits(seed)
    return [
        ChipColumns(from_circuits([chip]), constraints)
        for chip in circuits + h_circuits
    ]


def _ragged_populations(seed: int):
    """The rectangular populations among a ragged seed's chips.

    Groups every circuit of :func:`_ragged_circuits` by (ways, bands,
    architecture) and holds each group of two or more chips against the
    seed's limits, as both architectures of one population.
    """
    constraints, circuits, h_circuits = _ragged_circuits(seed)
    groups = {}
    for chip in circuits + h_circuits:
        shape = (chip.num_ways, chip.num_bands, chip.hyapd)
        groups.setdefault(shape, []).append(chip)
    populations = []
    for shape in sorted(groups):
        if len(groups[shape]) < 2:
            continue
        columns = from_circuits([
            chip._replace(chip_id=index)
            for index, chip in enumerate(groups[shape])
        ])
        populations.append(
            PopulationResult(
                constraints=constraints,
                regular=columns,
                horizontal=columns,
                policy=POLICIES[seed % 3],
            )
        )
    return populations


def _assert_row_matches(chips: ChipColumns, row: int, case) -> None:
    """Row ``row`` of ``chips`` holds the facts and leakage readings of
    the oracle ``case``."""
    assert tuple(chips.way_cycles[row].tolist()) == case.way_cycles
    assert tuple(np.flatnonzero(chips.delay_violations[row]).tolist()) == \
        case.delay_violating_ways
    assert bool(chips.delay_violations[row].any()) == case.delay_violation
    assert chips.circuits.way_leakages[row].tolist() == \
        list(case.way_leakages)
    assert chips.total_leakage[row] == case.total_leakage
    assert bool(chips.leakage_violation[row]) == case.leakage_violation
    assert bool(chips.passes[row]) == case.passes
    assert loss_reason(chips, row) == case.loss_reason
    assert configuration(chips, row) == case.configuration
    assert chips.way_gated_leakage[row].tolist() == [
        case.leakage_after_disabling_way(way)
        for way in range(case.circuit.num_ways)
    ]
    assert chips.leakiest_way[row] == case.max_leakage_way()


def _populations():
    params = [
        pytest.param(_study_rows, seed, id=f"study-{seed}")
        for seed in STUDY_SEEDS
    ]
    params += [
        pytest.param(_ragged_rows, seed, id=f"ragged-{seed}")
        for seed in RAGGED_SEEDS
    ]
    return params


@pytest.mark.parametrize("build,seed", _populations())
def test_cached_facts_match_oracle(build, seed):
    populations = build(seed)
    assert any((~chips.passes).any() for chips in populations)
    for chips in populations:
        for row in range(chips.count):
            _assert_row_matches(
                chips,
                row,
                OracleCase(circuit(chips.circuits, row), chips.constraints),
            )


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


@pytest.mark.parametrize("build,seed", _population_params()[::6])
def test_measured_cases_match_oracle(build, seed):
    """The sensor study on measured columns vs the per-chip measured
    cases: readings, decisions and the rescue counts."""
    for pop in build(seed):
        chips = pop.chips()
        oracle_cases = [
            OracleCase(circuit(pop.regular, i), pop.constraints)
            for i in range(pop.population)
        ]
        for sensor in SENSORS:
            failing, measured = measured_failing(chips, sensor)
            expected = [
                OracleMeasured(oracle_cases[index], sensor)
                for index in failing.tolist()
            ]
            for row, case in enumerate(expected):
                _assert_row_matches(measured, row, case)
            for scheme, oracle in zip(_schemes(), _oracle_schemes()):
                assert yield_with_sensor(chips, scheme, sensor) == \
                    oracle_yield_with_sensor(oracle_cases, oracle, sensor)
                decided = scheme.decide(measured)
                for row, case in enumerate(expected):
                    assert decision_row(decided, row) == \
                        _expected(oracle.rescue(case)), scheme.name


@pytest.mark.parametrize("build,seed", _population_params()[::3])
def test_population_results_match_oracle(build, seed):
    populations = build(seed)
    assert populations
    for pop in populations:
        expected = OraclePopulation.of(pop)
        for horizontal in (False, True):
            schemes = _schemes()
            oracles = _oracle_schemes()
            assert pop.breakdown(schemes, horizontal) == \
                expected.breakdown(oracles, horizontal)
            for scheme, oracle in zip(schemes, oracles):
                assert pop.configuration_census(scheme, horizontal) == \
                    expected.configuration_census(oracle, horizontal)
            assert pop.scatter(horizontal) == expected.scatter(horizontal)
        for policy in POLICIES:
            got = pop.reconstrained(policy)
            want = expected.reconstrained(policy)
            assert got.constraints == want.constraints
            assert got.regular is pop.regular
            assert got.horizontal is pop.horizontal
            assert got.breakdown(_schemes()) == \
                want.breakdown(_oracle_schemes())
