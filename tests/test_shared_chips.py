"""Battery: yield studies share the chips their engine already holds.

Chip ``i``'s circuit row depends only on its stream ``spawn(seed,
f"chip-{i}")``, the sampler's type and configuration, the technology and
the organisation, so a study of ``n`` chips on an engine
(``Engine.study``, a fixed population, a fixed estimate) takes the first
``n`` rows of a live population with that identity from the engine's
live-chip index instead of drawing them. This battery asserts that:

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
* the sensor's columnar readings equal the per-chip oracle's bit for
  bit on every failing chip, at every sensor setting.

Every test builds its own engine, so its index starts empty.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from oracles.classify import measure_ways
from repro.circuit.columnar import evaluate_population_pair
from repro.circuit.cache_model import CacheCircuitModel
from repro.circuit.organization import CacheOrganization
from repro.circuit.technology import TECH45
from repro.core import units
from repro.engine.codec import encode_estimate, encode_population
from repro.engine.core import Engine, EngineConfig
from repro.experiments.common import ExperimentSettings
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
    alone = _bytes(engine.study(_study(seed, config, 24, policy)))
    assert draws == [24] and not engine._live_chips  # nothing kept it
    holder = engine.study(_study(seed, config, 40, RELAXED_POLICY))
    del draws[:]
    shared = engine.study(_study(seed, config, 24, policy))
    assert draws == []
    assert _bytes(shared) == alone
    # A study of the holder's own count shares too.
    assert _bytes(engine.study(_study(seed, config, 40, RELAXED_POLICY))) \
        == _bytes(holder)
    assert draws == []


def test_a_larger_study_computes_and_replaces(engine, draws):
    seed, config = 9111, _config()
    small = engine.study(_study(seed, config, 16))
    large = engine.study(_study(seed, config, 32))
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
        large.append(engine.study(_study(seed, config, 32)))
        return study.evaluate(study.draw(0, 16))

    engine._shared_chips(study, compute)
    assert draws == [32, 16]
    assert _held(engine, study)[0] is large[0].regular


def test_shards_neither_look_up_nor_register(tmp_path, monkeypatch):
    """The engine's 2-worker chip shards draw every chip they are sent,
    though a live population holds some, and register none: only the
    engine offers a whole fixed population on."""
    seed = 9112
    engine = Engine(EngineConfig(workers=2, persistent=False))
    holder = engine.study(_study(seed, _config(), 32))
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
    holder = engine.study(_study(seed, _config(), 40))
    engine.study(_study(seed, config, 24))
    assert draws == [40, 24]
    engine.study(_study(seed + 1, _config(), 24))  # the seed too
    assert draws == [40, 24, 24]
    assert holder.population == 40


def test_equal_configurations_are_one_identity(engine, draws):
    """The paper point of each sweep rebuilds the paper configuration,
    and shares the paper chips."""
    paper = engine.study(_study(2006, (CacheVariationSampler(), TECH45,
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
        assert _bytes(engine.study(_study(2006, config, 24))) == \
            _bytes(paper)
    assert draws == [24]
    assert CacheVariationSampler() != _Subclass()
    assert hash(CacheVariationSampler()) == hash(CacheVariationSampler())


# ----------------------------------------------------------------------
# weak references
# ----------------------------------------------------------------------
def test_a_dropped_holder_is_not_shared(engine, draws):
    seed, config = 9131, _config()
    holder = engine.study(_study(seed, config, 40))
    reference = weakref.ref(holder.regular)
    del holder
    assert reference() is None  # no cycle keeps a population alive
    assert not engine._live_chips
    engine.study(_study(seed, config, 24))
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
    stock = engine.study(YieldStudy(seed=seed, count=24))
    assert draws == [24]
    assert _bytes(stock) != _bytes(grid)


def test_clear_memory_empties_the_index(engine, draws):
    seed, config = 9133, _config()
    holder = engine.study(_study(seed, config, 40))
    engine.clear_memory()
    assert not engine._live_chips
    engine.study(_study(seed, config, 24))
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
    study = engine.study(YieldStudy(seed=seed, count=40))
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
    assert draws == [48] * 9  # six correlation points, three ways
    del draws[:]
    engine = Engine(EngineConfig(persistent=False))
    engine.population(settings)
    got = [run_experiment(name, settings, engine).text for name in names]
    assert draws == [48] * 8 and got == want
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
                result = engine.study(YieldStudy(seed=seed, count=count))
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
