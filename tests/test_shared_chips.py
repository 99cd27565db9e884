"""Battery: yield studies share the chips their engine already holds.

Chip ``i``'s circuit row depends only on its stream ``spawn(seed,
f"chip-{i}")``, the sampler's type and configuration, the technology and
the organisation, so a study of ``n`` chips on an engine (a study of
``Engine.studies``, a fixed population, a fixed estimate) takes the
first ``n`` rows of a live population with that identity from the
engine's live-chip index instead of drawing them. The studies of one
``Engine.studies`` call that miss the index share draws: samplers with
one draw program decode equal raw draws, so each (seed, program) group
draws once and every study finalizes that draw. This battery asserts
that:

* a shared study makes no ``sample_range`` call and its store payload
  equals the same study run with nothing live, over 2-, 4- and 8-way
  meshes, scaled factors, no residuals, other temperatures and
  organisations, and any policy;
* a difference in any one identity field (seed, each sampler argument,
  a sampler subclass, temperature, organisation) means no sharing;
* the index holds weak references only: a dropped holder is gone,
  :meth:`YieldStudy.assemble` (which takes columns from anywhere, grid
  chips included) registers nothing, and ``clear_memory`` empties it;
* a 2-worker engine shares what its workers computed, its chip shards
  draw every range they are sent and register nothing, and the
  ``engine.population`` bench case still samples on every repeat;
* a fixed estimate of chips a live population holds reads its rows and
  runs no chip job;
* chips are shared within one engine only: two live engines each draw
  and count their own, and in ``repro all``'s yield half the paper
  points of ``ablation_corr`` and ``ablation_assoc`` read the engine's
  population;
* studies on more threads than cores, switching every microsecond, give
  their serial twins' bytes;
* equal draw-program keys hold exactly when raw draws are equal, and a
  sampler's ``finalize`` of another sampler's draws of its program is
  its own ``sample_range``; draws of another program are refused, and a
  population drawn through the ``die_z`` hook carries none;
* a sweep's populations equal each study's ``YieldStudy.run()`` on 1-
  and 2-worker engines, with and without a live paper population, and
  it draws once per (seed, program) group that misses the index; the
  ten simulation-free artefacts of ``repro all`` draw and evaluate the
  pinned chip counts, each artefact reading as when run alone;
* the sensor's columnar readings equal the per-chip oracle's bit for
  bit on every failing chip, at every sensor setting.

Every test builds its own engine, so its index starts empty.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from oracles.classify import measure_ways
from repro.circuit.columnar import evaluate_population_pair
from repro.circuit.cache_model import CacheCircuitModel
from repro.circuit.organization import CacheOrganization
from repro.circuit.technology import TECH45
from repro.core import units
from repro.core.errors import ConfigurationError
from repro.engine.codec import encode_estimate, encode_population
from repro.engine.core import Engine, EngineConfig
from repro.experiments.common import ExperimentSettings, scheme_set
from repro.experiments.runner import run_experiment
from repro.obs.bench import SUITES
from repro.schemes.sensors import LeakageSensor
from repro.variation.columnar import (
    ColumnarPopulation,
    ColumnarPopulationSampler,
)
from repro.variation.gridmodel import GridVariationSampler
from repro.variation.parameters import ParameterSpec, VariationTable
from repro.variation.sampling import CacheVariationSampler
from repro.variation.spatial import PAPER_FACTORS, MeshLayout
from repro.yieldmodel import analysis
from repro.yieldmodel.analysis import YieldStudy
from repro.yieldmodel.constraints import (
    NOMINAL_POLICY,
    RELAXED_POLICY,
    STRICT_POLICY,
)
from repro.yieldmodel.estimators import EstimatorSpec

SENSORS = (
    LeakageSensor(relative_noise=0.0, quantisation_levels=0),
    LeakageSensor(relative_noise=0.05, quantisation_levels=32, seed=3),
    LeakageSensor(relative_noise=0.25, quantisation_levels=8, seed=11),
)


def _config(ways=4, mesh=(2, 2), bands=4, org=None, tech=TECH45, **sampler):
    """(sampler, tech, organisation) of one study configuration."""
    return (
        CacheVariationSampler(
            mesh=MeshLayout(*mesh), num_ways=ways, num_bands=bands, **sampler
        ),
        tech,
        org or CacheOrganization(num_ways=ways, banks_per_way=bands),
    )


#: (id, seed, (sampler, tech, organisation)) of the prefix battery.
CONFIGS = [
    ("paper", 9101, _config()),
    ("2-way", 9102, _config(ways=2, mesh=(1, 2))),
    ("8-way", 9103, _config(ways=8, mesh=(2, 4), bands=2)),
    ("scaled-factors", 9104,
     _config(factors=PAPER_FACTORS.scaled_ways(2.0).with_band(0.4))),
    ("no-residuals", 9105,
     _config(path_residual_sigma=0.0, outlier_band_prob=0.0)),
    ("300K", 9106, _config(tech=TECH45.replace(temperature=300.0))),
    ("400K", 9107, _config(tech=TECH45.replace(temperature=400.0))),
    ("3-bands-tall", 9108,
     _config(ways=2, mesh=(2, 1), bands=3,
             org=CacheOrganization(num_ways=2, banks_per_way=3,
                                   rows_per_bank=128))),
]


@pytest.fixture
def engine():
    """A serial engine with no store and an empty live-chip index."""
    return Engine(EngineConfig(persistent=False))


@pytest.fixture
def draws(monkeypatch):
    """Chip counts of every ``sample_range`` call from here on."""
    counts = []
    sample_range = ColumnarPopulationSampler.sample_range

    def spy(self, seed, start, stop, *args, **kwargs):
        counts.append(stop - start)
        return sample_range(self, seed, start, stop, *args, **kwargs)

    monkeypatch.setattr(ColumnarPopulationSampler, "sample_range", spy)
    return counts


def _study(seed, config, count, policy=NOMINAL_POLICY) -> YieldStudy:
    sampler, tech, organization = config
    return YieldStudy(
        seed=seed, count=count, policy=policy, tech=tech,
        organization=organization, sampler=sampler,
    )


def _bytes(result) -> str:
    return json.dumps(encode_population(result), sort_keys=True)


def _one(engine, study):
    """``study``'s population as a sweep of one."""
    (result,) = engine.studies([study])
    return result


def _held(engine, study):
    """Both architectures' columns ``engine`` holds for ``study``'s chips."""
    key = (study.seed, study.sampler, study.tech, study.organization)
    return [engine._live_chips.get((key, hyapd)) for hyapd in (False, True)]


# ----------------------------------------------------------------------
# prefix identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "seed,config", [pytest.param(s, c, id=i) for i, s, c in CONFIGS]
)
@pytest.mark.parametrize("policy", [NOMINAL_POLICY, STRICT_POLICY])
def test_prefix_study_shares_the_live_chips(
    engine, draws, seed, config, policy
):
    alone = _bytes(_one(engine, _study(seed, config, 24, policy)))
    assert draws == [24] and not engine._live_chips  # nothing kept it
    holder = _one(engine, _study(seed, config, 40, RELAXED_POLICY))
    del draws[:]
    shared = _one(engine, _study(seed, config, 24, policy))
    assert draws == []
    assert _bytes(shared) == alone
    # A study of the holder's own count shares too.
    assert _bytes(_one(engine, _study(seed, config, 40, RELAXED_POLICY))) \
        == _bytes(holder)
    assert draws == []


def test_a_larger_study_computes_and_replaces(engine, draws):
    seed, config = 9111, _config()
    small = _one(engine, _study(seed, config, 16))
    large = _one(engine, _study(seed, config, 32))
    assert draws == [16, 32]
    assert _held(engine, _study(seed, config, 1))[0] is large.regular
    assert small.regular.chip_ids == large.regular.chip_ids[:16]


def test_a_smaller_population_never_displaces_a_larger(engine, draws):
    """A larger population of the same chips goes live while a smaller
    one is computed: the smaller one is not filed over it."""
    seed, config = 9113, _config()
    study = _study(seed, config, 16)
    large = []

    def compute():
        large.append(_one(engine, _study(seed, config, 32)))
        return study.evaluate(
            ColumnarPopulationSampler(study.sampler).sample_range(seed, 0, 16)
        )

    engine._shared_chips(study, compute)
    assert draws == [32, 16]
    assert _held(engine, study)[0] is large[0].regular


def test_shards_neither_look_up_nor_register(tmp_path, monkeypatch):
    """The engine's 2-worker chip shards draw every chip they are sent,
    though a live population holds some, and register none: only the
    engine offers a whole fixed population on."""
    seed = 9112
    engine = Engine(EngineConfig(workers=2, persistent=False))
    holder = _one(engine, _study(seed, _config(), 32))
    log = tmp_path / "draws"
    sample_range = ColumnarPopulationSampler.sample_range

    def spy(self, seed, start, stop, *args, **kwargs):
        # Pool workers are forked processes: they report through a file.
        with open(log, "a") as handle:
            handle.write(f"{start} {stop}\n")
        return sample_range(self, seed, start, stop, *args, **kwargs)

    def drawn():
        lines = log.read_text().splitlines()
        log.unlink()
        return sorted(tuple(map(int, line.split())) for line in lines)

    monkeypatch.setattr(ColumnarPopulationSampler, "sample_range", spy)
    # One 16-chip shard per adaptive batch, each run in process.
    engine.population(
        ExperimentSettings(seed=seed, chips=48),
        estimator=EstimatorSpec(kind="adaptive", batch_size=16),
    )
    assert drawn() == [(0, 16), (16, 32), (32, 48)]
    assert _held(engine, _study(seed, _config(), 1))[0] is holder.regular
    # Four 16-chip shards over the pool; the engine registers the whole.
    fixed = engine.population(ExperimentSettings(seed=seed, chips=64))
    assert drawn() == [(0, 16), (16, 32), (32, 48), (48, 64)]
    assert fixed.regular.chip_ids[:32] == holder.regular.chip_ids
    assert _held(engine, _study(seed, _config(), 1))[0] is fixed.regular


# ----------------------------------------------------------------------
# any difference means no sharing
# ----------------------------------------------------------------------
class _Subclass(CacheVariationSampler):
    pass


#: Table 1 with every three-sigma range 20% wider.
_WIDE_TABLE1 = VariationTable({
    "lgate": ParameterSpec("lgate", 45 * units.NM, 0.12),
    "vt": ParameterSpec("vt", 220 * units.MV, 0.216),
    "metal_width": ParameterSpec("metal_width", 0.25 * units.UM, 0.396),
    "metal_thickness": ParameterSpec("metal_thickness", 0.55 * units.UM, 0.396),
    "ild_thickness": ParameterSpec("ild_thickness", 0.15 * units.UM, 0.42),
})


def _variants():
    """(id, config) pairs, each one field away from the paper config."""
    two_way_org = CacheOrganization(num_ways=2)
    return [
        ("table", (CacheVariationSampler(table=_WIDE_TABLE1),
                   TECH45, CacheOrganization())),
        ("factors", (CacheVariationSampler(
            factors=PAPER_FACTORS.with_band(0.0)), TECH45,
            CacheOrganization())),
        ("mesh", (CacheVariationSampler(mesh=MeshLayout(1, 4)), TECH45,
                  CacheOrganization())),
        ("num_ways", (CacheVariationSampler(num_ways=2), TECH45,
                      two_way_org)),
        ("num_bands", (CacheVariationSampler(num_bands=2), TECH45,
                       CacheOrganization(banks_per_way=2))),
        ("clip_sigma", (CacheVariationSampler(clip_sigma=2.5), TECH45,
                        CacheOrganization())),
        ("path_residual_sigma", (CacheVariationSampler(
            path_residual_sigma=0.1), TECH45, CacheOrganization())),
        ("outlier_band_prob", (CacheVariationSampler(
            outlier_band_prob=0.05), TECH45, CacheOrganization())),
        ("outlier_scale_range", (CacheVariationSampler(
            outlier_scale_range=(1.1, 2.0)), TECH45, CacheOrganization())),
        ("subclass", (_Subclass(), TECH45, CacheOrganization())),
        ("temperature", (CacheVariationSampler(),
                         TECH45.replace(temperature=357.0),
                         CacheOrganization())),
        ("organization", (CacheVariationSampler(), TECH45,
                          CacheOrganization(rows_per_bank=128))),
    ]


@pytest.mark.parametrize(
    "config", [pytest.param(c, id=i) for i, c in _variants()]
)
def test_one_field_apart_shares_nothing(engine, draws, config):
    seed = 9121
    holder = _one(engine, _study(seed, _config(), 40))
    _one(engine, _study(seed, config, 24))
    assert draws == [40, 24]
    _one(engine, _study(seed + 1, _config(), 24))  # the seed too
    assert draws == [40, 24, 24]
    assert holder.population == 40


def test_equal_configurations_are_one_identity(engine, draws):
    """The paper point of each sweep rebuilds the paper configuration,
    and shares the paper chips."""
    paper = _one(engine, _study(2006, (CacheVariationSampler(), TECH45,
                                       CacheOrganization()), 24))
    rebuilt = [
        (CacheVariationSampler(
            factors=PAPER_FACTORS.scaled_ways(1.0).with_band(1.3)),
         TECH45, CacheOrganization()),
        (CacheVariationSampler(mesh=MeshLayout(rows=2, cols=2), num_ways=4),
         TECH45, CacheOrganization(num_ways=4)),
        (CacheVariationSampler(), TECH45.replace(temperature=358.0),
         CacheOrganization()),
    ]
    for config in rebuilt:
        assert _bytes(_one(engine, _study(2006, config, 24))) == \
            _bytes(paper)
    assert draws == [24]
    assert CacheVariationSampler() != _Subclass()
    assert hash(CacheVariationSampler()) == hash(CacheVariationSampler())


# ----------------------------------------------------------------------
# weak references
# ----------------------------------------------------------------------
def test_a_dropped_holder_is_not_shared(engine, draws):
    seed, config = 9131, _config()
    holder = _one(engine, _study(seed, config, 40))
    reference = weakref.ref(holder.regular)
    del holder
    assert reference() is None  # no cycle keeps a population alive
    assert not engine._live_chips
    _one(engine, _study(seed, config, 24))
    assert draws == [40, 24]


def test_assemble_registers_nothing(engine, draws):
    """Grid chips through a default study's assemble (as the correlation
    example does) never answer a later default study."""
    seed = 9132
    population = ColumnarPopulation.from_maps(
        [GridVariationSampler().sample_chip(seed, i) for i in range(24)]
    )
    grid = YieldStudy(seed=seed, count=24).assemble(
        *evaluate_population_pair(
            CacheCircuitModel(), CacheCircuitModel(hyapd=True), population
        )
    )
    stock = _one(engine, YieldStudy(seed=seed, count=24))
    assert draws == [24]
    assert _bytes(stock) != _bytes(grid)


def test_clear_memory_empties_the_index(engine, draws):
    seed, config = 9133, _config()
    holder = _one(engine, _study(seed, config, 40))
    engine.clear_memory()
    assert not engine._live_chips
    _one(engine, _study(seed, config, 24))
    assert draws == [40, 24]
    assert holder.population == 40


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def test_two_worker_engine_shares_its_population(draws):
    seed = 9141
    engine = Engine(EngineConfig(workers=2, persistent=False))
    engine.population(ExperimentSettings(seed=seed, chips=96))
    del draws[:]  # the workers, or the degraded in-process path
    jobs = engine.stats.jobs_run
    study = _one(engine, YieldStudy(seed=seed, count=40))
    smaller = engine.population(ExperimentSettings(seed=seed, chips=64))
    assert draws == [] and engine.stats.jobs_run == jobs
    # A plain run draws its own chips.
    assert _bytes(study) == _bytes(YieldStudy(seed=seed, count=40).run())
    assert _bytes(smaller) == _bytes(YieldStudy(seed=seed, count=64).run())


def test_fixed_estimate_reads_a_live_populations_rows(draws):
    """A fixed estimate of chips a live population holds runs no chip job
    of its own, and reports what a fresh engine reports."""
    settings = ExperimentSettings(seed=9142, chips=300)
    fixed = EstimatorSpec(kind="fixed")
    engine = Engine(EngineConfig(workers=1, persistent=False))
    engine.population(settings)
    assert engine.stats.jobs_run == 1
    report = engine.estimate(settings, estimator=fixed)
    assert engine.stats.jobs_run == 1 and draws == [300]
    fresh = Engine(EngineConfig(workers=1, persistent=False))
    assert encode_estimate(report) == encode_estimate(
        fresh.estimate(settings, estimator=fixed)
    )
    assert fresh.stats.jobs_run == 1 and draws == [300, 300]


def test_two_live_engines_each_count_their_own_chips(draws):
    """An engine never reads the chips another engine holds: while A's
    population is live, B draws and counts its own, as does a third
    engine once both are dropped."""
    settings = ExperimentSettings(seed=12, chips=40)
    first = Engine(EngineConfig(persistent=False))
    second = Engine(EngineConfig(persistent=False))
    texts = [
        run_experiment("table2", settings, engine).text
        for engine in (first, second)
    ]
    assert first.stats.jobs_run == second.stats.jobs_run == 1
    assert draws == [40, 40] and texts[0] == texts[1]
    del first, second
    third = Engine(EngineConfig(persistent=False))
    assert run_experiment("table2", settings, third).text == texts[0]
    assert third.stats.jobs_run == 1 and draws == [40, 40, 40]


def test_ablation_paper_points_read_the_population(draws):
    """``repro all``'s yield half: after the engine's population, the
    paper point of ``ablation_corr`` (way scale 1.0, band 1.3) and of
    ``ablation_assoc`` (4 ways) draws no chips, and each table reads as
    on an engine that holds no population."""
    settings = ExperimentSettings(seed=9161, chips=48)
    names = ("ablation_corr", "ablation_assoc")
    alone = Engine(EngineConfig(persistent=False))
    want = [run_experiment(name, settings, alone).text for name in names]
    assert draws == [48] * 5  # two correlation programs, three ways
    del draws[:]
    engine = Engine(EngineConfig(persistent=False))
    engine.population(settings)
    got = [run_experiment(name, settings, engine).text for name in names]
    # The population, two correlation programs, the 2- and 8-way points.
    assert draws == [48] * 5 and got == want
    assert engine.stats.jobs_run == 1


def test_bench_population_case_samples_every_repeat(draws):
    (case,) = [b for b in SUITES["engine"] if b.name == "engine.population"]
    engine = Engine(EngineConfig(persistent=False))
    run = case.prepare(engine)
    for _ in range(3):
        run()
    assert draws == [64, 64, 64]


# ----------------------------------------------------------------------
# threads
# ----------------------------------------------------------------------
def test_threads_give_their_serial_twins(engine):
    jobs = [
        (seed, count)
        for seed in (9151, 9152, 9153)
        for count in (8, 24, 40, 16)
    ]
    # A plain run draws its own chips: the serial twins share nothing.
    twins = {
        (seed, count): _bytes(YieldStudy(seed=seed, count=count).run())
        for seed, count in jobs
    }
    threads_count = 2 * (os.cpu_count() or 1) + 3
    work = [jobs[:] for _ in range(threads_count)]
    for index, queue in enumerate(work):
        random.Random(index).shuffle(queue)
    results = [[] for _ in range(threads_count)]
    kept = []  # every result stays live, so the index must end at 40
    errors = []
    start = threading.Barrier(threads_count)

    def worker(index):
        try:
            start.wait(timeout=60)
            for seed, count in work[index]:
                result = _one(engine, YieldStudy(seed=seed, count=count))
                kept.append(result)
                results[index].append(((seed, count), _bytes(result)))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for done in results:
        assert len(done) == len(jobs)
        for key, got in done:
            assert got == twins[key], key
    # A lost update would leave a smaller population in the index.
    for seed in (9151, 9152, 9153):
        held = _held(engine, YieldStudy(seed=seed, count=1))
        assert [len(columns) for columns in held] == [40, 40]


# ----------------------------------------------------------------------
# sweeps: one draw per (seed, draw program)
# ----------------------------------------------------------------------
#: Values each sampler field of the program battery takes. Outlier
#: probabilities are wide apart, so 48 chips tell any two of them (and
#: any two scale ranges) apart by their draws.
_PROGRAM_FIELDS = {
    "way_scale": st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    "band": st.sampled_from([0.0, 1.3]),
    "row": st.sampled_from([0.0, 0.05, 0.1]),
    "sigma": st.sampled_from([0.0, 0.22, 0.4]),
    "outlier_prob": st.sampled_from([0.0, 0.25, 0.5]),
    "outlier_range": st.sampled_from([(1.1, 2.1), (1.5, 3.0)]),
    # (ways, mesh, bands)
    "geometry": st.sampled_from([
        (2, (1, 2), 1), (2, (1, 2), 3), (4, (2, 2), 2), (4, (2, 2), 4),
        (8, (2, 4), 2),
    ]),
}


def _program_sampler(way_scale, band, row, sigma, outlier_prob,
                     outlier_range, geometry) -> CacheVariationSampler:
    ways, mesh, bands = geometry
    return CacheVariationSampler(
        factors=dataclasses.replace(
            PAPER_FACTORS.scaled_ways(way_scale).with_band(band), row=row
        ),
        mesh=MeshLayout(*mesh), num_ways=ways, num_bands=bands,
        path_residual_sigma=sigma, outlier_band_prob=outlier_prob,
        outlier_scale_range=outlier_range,
    )


@st.composite
def _sampler_pairs(draw):
    """Two samplers; each field of the second is the first's, or
    redrawn one time in three."""
    first = {name: draw(values) for name, values in _PROGRAM_FIELDS.items()}
    second = {
        name: draw(_PROGRAM_FIELDS[name])
        if draw(st.integers(0, 2)) == 0 else value
        for name, value in first.items()
    }
    return _program_sampler(**first), _program_sampler(**second)


def _raw(raw):
    return [(a.shape, a.tobytes())
            for a in (raw.head_z, raw.way_z, raw.residuals)]


_LABELS = [f"chip-{i}" for i in range(48)]


@hsettings(max_examples=60, deadline=None)
@given(pair=_sampler_pairs(), seed=st.integers(0, 2**31))
def test_equal_program_keys_are_equal_draws(pair, seed):
    first, second = (ColumnarPopulationSampler(s) for s in pair)
    same = first.program == second.program
    assert same == (
        _raw(first.draw(seed, _LABELS)) == _raw(second.draw(seed, _LABELS))
    )
    if pair[0] == pair[1]:
        assert same


@hsettings(max_examples=60, deadline=None)
@given(pair=_sampler_pairs(), seed=st.integers(0, 2**31))
def test_finalize_of_another_samplers_draws_is_its_own_sample(pair, seed):
    first, second = (ColumnarPopulationSampler(s) for s in pair)
    drawn = first.sample_range(seed, 0, 12)
    if first.program != second.program:
        with pytest.raises(ConfigurationError, match="draw program"):
            second.finalize(range(12), drawn.draws)
        return
    got = second.finalize(range(12), drawn.draws)
    want = second.sample_range(seed, 0, 12)
    # Also over the first rows of a larger draw.
    prefix = second.finalize(range(5), drawn.draws.first(5))
    assert got.chip_ids == want.chip_ids and got.has_residuals == \
        want.has_residuals
    for name in ("die", "way_params", "peripherals", "bands",
                 "band_residuals"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert getattr(prefix, name).tobytes() == \
            getattr(want, name)[:5].tobytes()


def test_rewritten_draws_are_not_shared():
    """Draws carry their program; a population drawn through the
    ``die_z`` hook carries none, and ``finalize`` refuses draws of
    another program."""
    columnar = ColumnarPopulationSampler(CacheVariationSampler())
    plain = columnar.sample_range(5, 0, 8)
    assert plain.draws.program == columnar.program
    rewritten = columnar.sample_range(5, 0, 8, die_z=lambda z: None)
    assert rewritten.draws is None
    assert rewritten.die.tobytes() == plain.die.tobytes()
    unbanded = ColumnarPopulationSampler(
        CacheVariationSampler(factors=PAPER_FACTORS.with_band(0.0))
    )
    with pytest.raises(ConfigurationError, match="draw program"):
        unbanded.finalize(range(8), plain.draws)
    # Scaled way factors are the paper's program; a zero scale is not.
    for scale, same in ((0.5, True), (2.0, True), (0.0, False)):
        scaled = ColumnarPopulationSampler(CacheVariationSampler(
            factors=PAPER_FACTORS.scaled_ways(scale)
        ))
        assert (scaled.program == columnar.program) == same


def _scaled(way_scale, band):
    return CacheVariationSampler(
        factors=PAPER_FACTORS.scaled_ways(way_scale).with_band(band)
    )


def _sweep(seed):
    """A sweep over every kind of group: rescaled samplers of the
    paper's and the unbanded program, at two counts; two temperatures
    of the paper program; other ways; another seed."""
    studies = [
        YieldStudy(seed=seed, count=32, sampler=_scaled(way_scale, band))
        for way_scale in (0.5, 1.0, 2.0)
        for band in (0.0, 1.3)
    ]
    studies += [
        YieldStudy(seed=seed, count=16, sampler=_scaled(2.0, 0.0)),
        YieldStudy(seed=seed, count=24,
                   tech=TECH45.replace(temperature=300.0)),
        YieldStudy(seed=seed, count=32,
                   tech=TECH45.replace(temperature=358.0)),
        YieldStudy(
            seed=seed, count=24,
            sampler=CacheVariationSampler(
                mesh=MeshLayout(rows=2, cols=4), num_ways=8
            ),
            organization=CacheOrganization(num_ways=8),
        ),
        YieldStudy(seed=seed + 1, count=24, sampler=_scaled(0.5, 1.3)),
    ]
    return studies


@pytest.mark.parametrize("live", [False, True], ids=["cold", "live-paper"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_equals_its_studies_run_alone(workers, live):
    seed = 9181
    engine = Engine(EngineConfig(workers=workers, persistent=False))
    if live:
        holder = engine.population(ExperimentSettings(seed=seed, chips=40))
    studies = _sweep(seed)
    results = engine.studies(studies)
    assert len(results) == len(studies)
    for study, result in zip(studies, results):
        alone = study.run()
        assert _bytes(result) == _bytes(alone)
        for horizontal in (False, True):
            schemes = scheme_set(horizontal=horizontal)
            assert result.breakdown(schemes, horizontal=horizontal) == \
                alone.breakdown(schemes, horizontal=horizontal)
    if live:
        assert holder.population == 40


def test_one_draw_per_group_that_misses(engine, draws):
    """Each (seed, program) group that misses the index draws once, at
    its first miss, over its largest count; a group whose every study
    hits draws nothing."""
    seed = 9182
    engine.population(ExperimentSettings(seed=seed, chips=48))
    del draws[:]
    engine.studies([
        # The paper program: the paper point hits, the scaled ones miss.
        YieldStudy(seed=seed, count=24, sampler=_scaled(0.5, 1.3)),
        YieldStudy(seed=seed, count=40),
        YieldStudy(seed=seed, count=40, sampler=_scaled(2.0, 1.3)),
        # The unbanded program: every study misses.
        YieldStudy(seed=seed, count=16, sampler=_scaled(0.5, 0.0)),
        YieldStudy(seed=seed, count=32, sampler=_scaled(1.0, 0.0)),
        YieldStudy(seed=seed + 1, count=8, sampler=_scaled(2.0, 0.0)),
    ])
    assert draws == [40, 32, 8]
    engine.studies([
        YieldStudy(seed=seed, count=24),
        YieldStudy(seed=seed, count=48,
                   tech=TECH45.replace(temperature=358.0)),
    ])
    assert draws == [40, 32, 8]


#: The simulation-free artefacts of ``repro all``, in its order.
YIELD_SWEEP = (
    "fig8", "table2", "table3", "table4", "table5", "sec42",
    "ablation_corr", "ablation_sensor", "ablation_assoc",
    "ablation_temperature",
)


def test_yield_sweep_chip_counts(monkeypatch, draws):
    """Seeds 3 and 4 at 400 chips on one engine: per seed, the
    population (400 chips), one draw per correlation program (2 x 400),
    the 2- and 8-way points (2 x 400) and one temperature draw (400);
    every point but the paper's is evaluated, and the 358 K point reads
    the population's rows. Each artefact reads as when run alone."""
    evaluated = []
    pair = analysis.evaluate_population_pair

    def spy(regular, horizontal, population):
        evaluated.append(len(population.chip_ids))
        return pair(regular, horizontal, population)

    monkeypatch.setattr(analysis, "evaluate_population_pair", spy)
    engine = Engine(EngineConfig(persistent=False))
    results = {
        (name, seed): run_experiment(
            name, ExperimentSettings(seed=seed, chips=400), engine
        )
        for seed in (3, 4)
        for name in YIELD_SWEEP
    }
    assert (sum(draws), sum(evaluated)) == (4800, 8000)
    for (name, seed), result in results.items():
        alone = run_experiment(
            name, ExperimentSettings(seed=seed, chips=400),
            Engine(EngineConfig(persistent=False)),
        )
        assert (alone.text, alone.data) == (result.text, result.data), name


# ----------------------------------------------------------------------
# sensor readings
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "seed,config", [pytest.param(s, c, id=i) for i, s, c in CONFIGS]
)
def test_sensor_readings_match_oracle(seed, config):
    pop = _study(seed, config, 60).run()
    for horizontal in (False, True):
        chips = pop.chips(horizontal)
        failing = np.flatnonzero(~chips.passes).tolist()
        assert failing
        circuits = chips.circuits
        for sensor in SENSORS:
            got = sensor.measure(
                [circuits.chip_ids[i] for i in failing],
                circuits.way_leakages[failing],
            ).tolist()
            for row, index in enumerate(failing):
                want = measure_ways(
                    sensor, circuits.chip_ids[index],
                    tuple(circuits.way_leakages[index].tolist()),
                )
                assert got[row] == list(want), (sensor, index)
