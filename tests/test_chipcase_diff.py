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
  have no columnar form);
* the counts ``ChipColumns`` derives once — every row's loss code, the
  base counts and the ship count — and every scheme's residual counts
  equal the per-chip ``breakdown``'s, value for value and in the
  tables' row order (leakage first, then the delay buckets by ascending
  way count, empty buckets left out). This holds on every other study
  population, on 48 random rectangular populations of 2, 4 and 8 ways
  whose random limits fill every delay bucket from 1 to 8 ways, under
  each policy's ``reconstrained`` limits, on the sensor study's
  measured columns, and on a population of no chips.
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
from repro.yieldmodel.analysis import (
    LossBreakdown,
    PopulationResult,
    YieldStudy,
)
from repro.yieldmodel.classify import ChipColumns, LossReason, loss_counts
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
RANDOM_SEEDS = range(48)

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


def _random_population(seed: int) -> PopulationResult:
    """A rectangular population of random circuits: 2, 4 or 8 ways of 2
    or 4 bands, 2 to 40 chips, held to a random delay limit inside the
    way delays' range (so any number of ways can miss it) and a leakage
    limit near the regular chips' mean total."""
    rng = random.Random(seed)
    ways = (2, 4, 8)[seed % 3]
    shape = (ways, rng.choice((2, 4)))
    count = rng.randrange(2, 41)
    regular, horizontal = (
        from_circuits([
            _random_circuit(rng, i, shape, hyapd=hyapd) for i in range(count)
        ])
        for hyapd in (False, True)
    )
    constraints = YieldConstraints(
        delay_limit=rng.uniform(1e-9, 3e-9),
        leakage_limit=rng.uniform(0.7, 1.3)
        * float(regular.total_leakage.mean()),
    )
    return PopulationResult(
        constraints, regular, horizontal, policy=POLICIES[(seed // 3) % 3]
    )


def _no_chips() -> PopulationResult:
    """Study seed 0's population cut to no chips (limits kept)."""
    pop = _study_population(0)
    rows = np.arange(0)
    return PopulationResult(
        pop.constraints, pop.regular.take(rows), pop.horizontal.take(rows)
    )


def _row_order(counts):
    """``counts`` as (reason, count) pairs in the tables' row order:
    the enum's, leakage first, then delay by ascending way count."""
    return [(reason, counts[reason]) for reason in LossReason
            if reason in counts]


def _code(case) -> int:
    """The loss code of an oracle case: 0 passes, 1 leakage, 1 + k
    delay over k ways."""
    if case.passes:
        return 0
    if case.leakage_violation:
        return 1
    return 1 + len(case.delay_violating_ways)


def _assert_counts_match(
    chips: ChipColumns, cases, got: LossBreakdown, want: LossBreakdown
) -> None:
    """``chips``' codes and derived counts, and the breakdown ``got``
    over them, equal the oracle breakdown ``want`` over ``cases``, in
    value and in row order."""
    assert chips.loss_codes.tolist() == [_code(case) for case in cases]
    assert list(chips.base_counts.items()) == _row_order(want.base_counts)
    assert chips.ships == len(cases) - want.base_total
    assert got.population == want.population == len(cases)
    assert list(got.base_counts.items()) == _row_order(want.base_counts)
    assert list(got.scheme_losses) == list(want.scheme_losses)
    for name, losses in want.scheme_losses.items():
        assert list(got.scheme_losses[name].items()) == _row_order(losses)


def _assert_population_counts_match(pop, expected) -> None:
    for horizontal in (False, True):
        _assert_counts_match(
            pop.chips(horizontal),
            expected.select(horizontal),
            pop.breakdown(_schemes(), horizontal),
            expected.breakdown(_oracle_schemes(), horizontal),
        )


def _assert_measured_counts_match(pop, expected) -> None:
    """The sensor study's measured columns count as the oracle counts
    the per-chip measured cases, and ``yield_with_sensor`` agrees."""
    chips = pop.chips()
    for sensor in SENSORS:
        failing, measured = measured_failing(chips, sensor)
        cases = [
            OracleMeasured(expected.cases[index], sensor)
            for index in failing.tolist()
        ]
        schemes = _schemes()
        _assert_counts_match(
            measured,
            cases,
            LossBreakdown(
                base_counts=dict(measured.base_counts),
                scheme_losses={
                    scheme.name: loss_counts(
                        measured.loss_codes[~scheme.decide(measured).saved]
                    )
                    for scheme in schemes
                },
                population=measured.count,
            ),
            OraclePopulation(pop.constraints, cases, cases).breakdown(
                _oracle_schemes()
            ),
        )
        for scheme, oracle in zip(schemes, _oracle_schemes()):
            assert yield_with_sensor(chips, scheme, sensor) == \
                oracle_yield_with_sensor(expected.cases, oracle, sensor)


def _count_params():
    params = [
        pytest.param(_study_population, seed, id=f"study-{seed}")
        for seed in STUDY_SEEDS[::2]
    ]
    params += [
        pytest.param(_random_population, seed, id=f"random-{seed}")
        for seed in RANDOM_SEEDS
    ]
    return params + [
        pytest.param(lambda seed: _no_chips(), 0, id="no-chips")
    ]


@pytest.mark.parametrize("build,seed", _count_params())
def test_derived_counts_match_oracle(build, seed):
    """Codes, base counts, ship count and residual counts, in value and
    row order, at the population's own limits, under every policy's
    reconstrained limits, and on the measured columns."""
    pop = build(seed)
    expected = OraclePopulation.of(pop)
    _assert_population_counts_match(pop, expected)
    _assert_measured_counts_match(pop, expected)
    if pop.population == 0:
        assert pop.base_yields == ()
        return
    for policy in POLICIES:
        _assert_population_counts_match(
            pop.reconstrained(policy), expected.reconstrained(policy)
        )


def test_random_populations_fill_every_bucket():
    """The random populations reach leakage and all eight delay
    buckets, so the row-order checks see every reason."""
    seen = set()
    for seed in RANDOM_SEEDS:
        pop = _random_population(seed)
        for horizontal in (False, True):
            seen.update(pop.chips(horizontal).base_counts)
    assert seen == set(LossReason) - {LossReason.NONE}
