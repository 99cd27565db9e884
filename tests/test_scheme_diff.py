"""Differential battery: array scheme decisions vs the per-chip originals.

Every scheme decides a whole population with one array call
(``Scheme.decide`` over ``ChipColumns``). The original per-chip
``rescue`` bodies live in ``tests/oracles/schemes.py`` and the original
per-chip population result in ``tests/oracles/classify.py``. Over 102 seeded populations
(regular and H-YAPD architectures; nominal, relaxed and strict limits;
2, 4 and 8 ways) this battery asserts that:

* every chip's saved flag, disabled way or band and post-rescue cycles
  in ``decide`` equal the oracle's outcome; H-YAPD's gated-band leakage
  equals the original's value for value;
* ``breakdown``, ``configuration_census``, ``scatter`` and the
  ``reconstrained`` limits equal the oracle population's;
* the columnar ``yield_with_sensor`` equals the per-chip oracle's for
  three sensor settings, every failing row's decision on measured
  columns equals the oracle's rescue of that chip's measured case, and
  with a perfect sensor every believed save is an actual one;
* every decision keeps the invariants the per-chip outcome type
  enforced: never a way and a band disabled together, a saved failing
  row's cycles 0 exactly at its disabled way and at least 4 elsewhere,
  and passing rows saved unchanged.

The chips of the 36 ragged random populations of ``test_chipcase_diff``
(ways and bands varying from chip to chip) run as one-row columns.
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
from repro.schemes.hyapd import leakage_without_band
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
from tests.conftest import decision_row

POLICIES = (NOMINAL_POLICY, RELAXED_POLICY, STRICT_POLICY)
#: (ways, mesh rows, mesh cols): the associativity sweep's layouts.
LAYOUTS = ((2, 1, 2), (4, 2, 2), (8, 2, 4))
CHIPS = 40
SEEDS = range(102)
RAGGED_SEEDS = range(36)
RAGGED_CHIPS = 24

SENSORS = (
    LeakageSensor(relative_noise=0.0, quantisation_levels=0),
    LeakageSensor(relative_noise=0.05, quantisation_levels=32, seed=3),
    LeakageSensor(relative_noise=0.25, quantisation_levels=8, seed=11),
)


def _pairs():
    """(production scheme, oracle scheme) pairs, parameter variants too."""
    o = oracle_schemes
    return [
        (YAPD(), o.YAPD()),
        (HYAPD(), o.HYAPD()),
        (HYAPD(peripheral_save_fraction=0.0), o.HYAPD(0.0)),
        (HYAPD(peripheral_save_fraction=1.0), o.HYAPD(1.0)),
        (VACA(), o.VACA()),
        (DeepVACA(), o.DeepVACA()),
        (DeepVACA(slack=0), o.DeepVACA(slack=0)),
        (Hybrid(), o.Hybrid()),
        (HybridHorizontal(), o.HybridHorizontal()),
        (HybridHorizontal(0.0), o.HybridHorizontal(0.0)),
        (NaiveBinning(), o.NaiveBinning()),
        (NaiveBinning(target_cycles=6), o.NaiveBinning(target_cycles=6)),
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


def _oracle_cases(pop: PopulationResult, horizontal: bool):
    circuits = pop.horizontal if horizontal else pop.regular
    return [
        OracleCase(circuit(circuits, i), pop.constraints)
        for i in range(pop.population)
    ]


def _expected(outcome):
    if not outcome.saved:
        return (False, None, None, None)
    return (
        True, outcome.disabled_way, outcome.disabled_band, outcome.way_cycles
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_decisions_match_oracle(seed):
    pop = _study_population(seed)
    failing = 0
    for horizontal in (False, True):
        chips = pop.chips(horizontal)
        cases = _oracle_cases(pop, horizontal)
        failing += sum(1 for case in cases if not case.passes)
        for scheme, oracle in _pairs():
            decided = scheme.decide(chips)
            for index, case in enumerate(cases):
                assert decision_row(decided, index) == \
                    _expected(oracle.rescue(case)), (scheme.name, index)
    assert failing


@pytest.mark.parametrize("seed", SEEDS[::6])
def test_band_leakage_matches_oracle(seed):
    """H-YAPD's gated-band leakage, value for value: ``(total - band
    array) - fraction * peripheral / bands``, in the original's order."""
    pop = _study_population(seed)
    for horizontal in (False, True):
        chips = pop.chips(horizontal)
        cases = _oracle_cases(pop, horizontal)
        for fraction in (0.0, 0.5, 1.0):
            oracle = oracle_schemes.HYAPD(fraction)
            got = leakage_without_band(chips, fraction).tolist()
            for row, case in zip(got, cases):
                assert row == [
                    oracle.leakage_after_disabling_band(case, band)
                    for band in range(case.circuit.num_bands)
                ]


@pytest.mark.parametrize("seed", RAGGED_SEEDS)
def test_ragged_chips_match_oracle(seed):
    """Chips whose ways and bands vary from chip to chip, each as a
    one-row population."""
    rng = random.Random(seed)
    constraints = YieldConstraints(
        delay_limit=rng.uniform(1e-9, 3e-9),
        leakage_limit=rng.uniform(0.2, 2.0),
    )
    circuits = [_random_circuit(rng, i) for i in range(2 * RAGGED_CHIPS)]
    assert any(
        not OracleCase(chip, constraints).passes for chip in circuits
    )
    for chip in circuits:
        row = ChipColumns(from_circuits([chip]), constraints)
        oracle_case = OracleCase(chip, constraints)
        for scheme, oracle in _pairs():
            assert decision_row(scheme.decide(row)) == \
                _expected(oracle.rescue(oracle_case)), scheme.name


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_population_results_match_oracle(seed):
    pop = _study_population(seed)
    expected = OraclePopulation.of(pop)
    pairs = _pairs()
    schemes = [scheme for scheme, _ in pairs]
    oracles = [oracle for _, oracle in pairs]
    for horizontal in (False, True):
        assert pop.breakdown(schemes, horizontal) == expected.breakdown(
            oracles, horizontal
        )
        for scheme, oracle in pairs:
            assert pop.configuration_census(scheme, horizontal) == \
                expected.configuration_census(oracle, horizontal)
        assert pop.scatter(horizontal) == expected.scatter(horizontal)
    for policy in POLICIES:
        got = pop.reconstrained(policy)
        want = expected.reconstrained(policy)
        assert got.constraints == want.constraints
        assert got.breakdown(schemes) == want.breakdown(oracles)


@pytest.mark.parametrize("seed", SEEDS[::6])
def test_sensor_yield_matches_oracle(seed):
    pop = _study_population(seed)
    chips = pop.chips()
    oracle_cases = _oracle_cases(pop, False)
    for sensor in SENSORS:
        failing, measured = measured_failing(chips, sensor)
        assert failing.size
        for scheme, oracle in _pairs():
            assert yield_with_sensor(chips, scheme, sensor) == \
                oracle_yield_with_sensor(oracle_cases, oracle, sensor)
            decided = scheme.decide(measured)
            for row, index in enumerate(failing.tolist()):
                want = oracle.rescue(
                    OracleMeasured(oracle_cases[index], sensor)
                )
                assert decision_row(decided, row) == _expected(want), (
                    scheme.name, index
                )


@pytest.mark.parametrize("seed", SEEDS[::17])
def test_perfect_sensor_saves_what_it_believes(seed):
    """A perfect sensor reads the true leakage, so every save a scheme
    believes in is an actual one, on both architectures."""
    pop = _study_population(seed)
    perfect = SENSORS[0]
    believed_any = False
    for horizontal in (False, True):
        chips = pop.chips(horizontal)
        for scheme, _ in _pairs():
            believed, actual = yield_with_sensor(chips, scheme, perfect)
            assert believed == actual, (scheme.name, horizontal)
            assert believed == np.count_nonzero(
                ~chips.passes & scheme.decide(chips).saved
            ), (scheme.name, horizontal)
            believed_any |= believed > 0
    assert believed_any


def _assert_decision_invariants(chips: ChipColumns, decided, name: str):
    way = decided.disabled_way
    band = decided.disabled_band
    saved = decided.saved
    assert not (saved & (way >= 0) & (band >= 0)).any(), name
    rows = np.flatnonzero(saved & ~chips.passes)
    cycles = decided.way_cycles[rows]
    at_way = np.arange(chips.circuits.num_ways) == way[rows, None]
    assert (cycles[at_way] == 0).all(), name
    assert (cycles[~at_way] >= 4).all(), name
    passing = chips.passes
    assert saved[passing].all(), name
    assert (decided.way_cycles[passing] == chips.way_cycles[passing]).all(), \
        name
    assert (way[passing] == -1).all() and (band[passing] == -1).all(), name


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_decision_invariants(seed):
    """Every scheme setting on true and sensor-measured columns."""
    pop = _study_population(seed)
    for horizontal in (False, True):
        chips = pop.chips(horizontal)
        columns = [chips] + [
            measured_failing(chips, sensor)[1] for sensor in SENSORS
        ]
        for scheme, _ in _pairs():
            for rows in columns:
                _assert_decision_invariants(
                    rows, scheme.decide(rows), scheme.name
                )
