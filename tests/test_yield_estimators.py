"""Battery for the smart yield estimators.

Covers, per ISSUE 10:

* importance-sampling unbiasedness against brute force over 50+
  randomized configurations (paired chip streams, CI agreement),
* Neyman-allocation property tests,
* adaptive-stopping determinism at 1 vs 4 workers (byte-equal payloads),
* parity with the composed circuit oracle for every estimator kind,
* the zero-population guards,
* warm byte-identity through the engine store and the serve layer,
* one chip path: a fixed estimate reports its population's limits, pass
  counts and Wilson bounds, estimate dispatches carry the population's
  provenance, and adaptive populations match at 1 and 2 workers.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.core.errors import ConfigurationError
from repro.engine.chips import BatchRunner, chip_shard
from repro.engine.codec import encode_estimate, encode_population
from repro.engine.core import Engine, EngineConfig
from repro.experiments.common import ExperimentSettings
from repro.yieldmodel import analysis
from repro.yieldmodel.analysis import LossBreakdown
from repro.yieldmodel.classify import LossReason
from repro.yieldmodel.constraints import (
    ConstraintPolicy,
    NOMINAL_POLICY,
    PAPER_POLICIES,
    RELAXED_POLICY,
)
from repro.yieldmodel.estimators import (
    EstimatorSpec,
    ndtri,
    neyman_allocation,
    normal_cdf,
    run_estimate,
)
from repro.yieldmodel.estimators.core import estimate_is
from repro.yieldmodel.estimators.sampling import STRATUM_PARAM
from repro.yieldmodel.statistics import wilson_interval

from oracles import circuit as circuit_oracle


def _estimate(report, figure: str):
    """The report's estimate of one tracked figure (``"regular.base"``)."""
    [estimate] = [e for e in report.estimates if e.figure == figure]
    return estimate


def _blob(report) -> str:
    return json.dumps(encode_estimate(report), sort_keys=True)


# ----------------------------------------------------------------------
# normal helpers
# ----------------------------------------------------------------------
def test_ndtri_round_trips_the_cdf():
    for p in (1e-9, 1e-4, 0.02425, 0.3, 0.5, 0.7, 0.97575, 0.9999, 1 - 1e-9):
        x = ndtri(p)
        assert abs(normal_cdf(x) - p) < 1e-9 * max(1.0, abs(x))


def test_ndtri_known_quantiles():
    assert ndtri(0.5) == pytest.approx(0.0, abs=1e-12)
    assert ndtri(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert ndtri(0.025) == pytest.approx(-1.959964, abs=1e-5)


def test_ndtri_rejects_domain_edges():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ConfigurationError):
            ndtri(p)


# ----------------------------------------------------------------------
# Neyman allocation properties
# ----------------------------------------------------------------------
def test_neyman_allocation_sums_exactly_and_respects_floor():
    rng = random.Random(7)
    for _ in range(200):
        strata = rng.randint(1, 12)
        weights = [rng.random() for _ in range(strata)]
        sigmas = [rng.random() for _ in range(strata)]
        floor = rng.randint(0, 3)
        total = strata * floor + rng.randint(0, 500)
        alloc = neyman_allocation(weights, sigmas, total, floor=floor)
        assert sum(alloc) == total
        assert all(a >= floor for a in alloc)


def test_neyman_allocation_proportional_to_weight_times_sigma():
    alloc = neyman_allocation([0.5, 0.5], [3.0, 1.0], 400)
    # n_h proportional to w_h * s_h = 1.5 : 0.5 -> 300 : 100.
    assert alloc == [300, 100]


def test_neyman_allocation_zero_scores_degrade_to_equal_split():
    assert neyman_allocation([1.0, 1.0], [0.0, 0.0], 10) == [5, 5]


def test_neyman_allocation_deterministic_tie_break():
    a = neyman_allocation([0.25] * 4, [1.0] * 4, 10)
    b = neyman_allocation([0.25] * 4, [1.0] * 4, 10)
    assert a == b and sum(a) == 10


def test_neyman_allocation_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        neyman_allocation([], [], 10)
    with pytest.raises(ConfigurationError):
        neyman_allocation([1.0], [1.0, 2.0], 10)
    with pytest.raises(ConfigurationError):
        neyman_allocation([1.0, 1.0], [1.0, 1.0], 3, floor=2)


# ----------------------------------------------------------------------
# estimator spec
# ----------------------------------------------------------------------
def test_spec_identity_depends_only_on_consumed_fields():
    a = EstimatorSpec(kind="is", strata=4)
    b = EstimatorSpec(kind="is", strata=8)
    assert a.identity() == b.identity()
    assert EstimatorSpec(kind="fixed").identity() == {
        "kind": "fixed", "max_chips": None, "confidence": 0.95,
    }
    assert EstimatorSpec(kind="fixed", batch_size=16).identity() == \
        EstimatorSpec(kind="fixed").identity()
    assert "tilt_scale" in EstimatorSpec(kind="is").identity()
    assert "strata" in EstimatorSpec(kind="stratified").identity()


def test_spec_from_payload_rejects_unknown_and_mistyped_fields():
    with pytest.raises(ConfigurationError):
        EstimatorSpec.from_payload({"kind": "adaptive", "ci_tgt": 0.02})
    with pytest.raises(ConfigurationError):
        EstimatorSpec.from_payload({"batch_size": "big"})
    with pytest.raises(ConfigurationError):
        EstimatorSpec.from_payload([1, 2])
    spec = EstimatorSpec.from_payload({"kind": "adaptive", "ci_target": 0.05})
    assert spec.kind == "adaptive" and spec.ci_target == 0.05


def test_spec_validation_bounds():
    with pytest.raises(ConfigurationError):
        EstimatorSpec(kind="magic")
    with pytest.raises(ConfigurationError):
        EstimatorSpec(ci_target=0.7)
    with pytest.raises(ConfigurationError):
        EstimatorSpec(strata=1)
    for confidence in (0.5, 0.951):
        with pytest.raises(ConfigurationError):
            EstimatorSpec(confidence=confidence)


def test_spec_sample_cap_leaves_room_past_the_pilot():
    assert EstimatorSpec().sample_cap(200) == 200
    assert EstimatorSpec(kind="adaptive", max_chips=50).sample_cap(200) == 50
    # Four strata of 50 pilot chips need at least one more chip each.
    assert EstimatorSpec(kind="stratified").sample_cap(204) == 204
    with pytest.raises(ConfigurationError, match="4x50-chip"):
        EstimatorSpec(kind="stratified").sample_cap(203)
    assert EstimatorSpec(kind="is").sample_cap(202) == 202
    with pytest.raises(ConfigurationError, match="200-chip IS pilot"):
        EstimatorSpec(kind="is").sample_cap(201)


# ----------------------------------------------------------------------
# IS unbiasedness vs brute force (the 50-config battery)
# ----------------------------------------------------------------------
def test_is_unbiased_against_brute_force_across_random_configs():
    """IS and brute force agree within CI on 50 randomized configs.

    Paired streams: ``estimate_is`` derives its limits from the first
    ``pilot_chips`` chips of the reference ``"chip"`` stream, and the
    brute-force check classifies chips of that same stream under those
    same limits — so any disagreement is estimator error, not limit
    noise. Two checks: (1) per-config 95% intervals from each side must
    overlap for the vast majority of configs (IS intervals undercover
    slightly when heavy-weight failures are rare, so a small miss rate
    is expected even for a correct estimator), and (2) the mean signed
    error over all ~100 paired estimates must be near zero — a biased
    weight formula (e.g. a sign flip in the log-likelihood ratio) fails
    both by a wide margin.
    """
    rng = random.Random(20060101)
    runner = BatchRunner()
    disagreements = 0
    signed_errors = []
    configs = 52
    for index in range(configs):
        seed = rng.randint(1, 10**6)
        policy = ConstraintPolicy(
            f"rand{index}",
            round(rng.uniform(1.0, 3.0), 3),
            round(rng.uniform(3.0, 8.0), 3),
        )
        pilot = rng.randint(40, 80)
        spec = EstimatorSpec(
            kind="is",
            pilot_chips=pilot,
            tilt_scale=round(rng.uniform(0.5, 1.25), 3),
            batch_size=rng.randint(80, 160),
        )
        cap = pilot + rng.randint(240, 360)
        report = estimate_is(runner, spec, seed, cap, policy)
        cons = report.constraints
        brute_n = 500
        data = runner.run(seed, "chip", 0, brute_n)
        for figure, columns in (
            ("regular.base", data.regular),
            ("horizontal.base", data.horizontal),
        ):
            circuits = [
                circuit_oracle.circuit(columns, i) for i in range(len(columns))
            ]
            ships = sum(
                1
                for c in circuits
                if c.total_leakage <= cons.leakage_limit
                and all(d <= cons.delay_limit for d in c.way_delays)
            )
            low, high = wilson_interval(ships, brute_n)
            estimate = _estimate(report, figure)
            signed_errors.append(estimate.estimate - ships / brute_n)
            if estimate.ci_high < low or high < estimate.ci_low:
                disagreements += 1
    assert disagreements <= 12, (
        f"{disagreements}/{2 * configs} IS-vs-brute-force intervals "
        "disagree — importance weights are biased"
    )
    # Aggregate bias check: the mean signed error over ~100 paired
    # estimates must be a small fraction of a typical interval width.
    mean_error = sum(signed_errors) / len(signed_errors)
    assert abs(mean_error) < 0.015, mean_error


def test_is_effective_sample_size_is_sane():
    runner = BatchRunner()
    spec = EstimatorSpec(kind="is", pilot_chips=60)
    report = estimate_is(runner, spec, 11, 200, RELAXED_POLICY)
    estimate = _estimate(report, "regular.base")
    # ESS of a weighted sample lies in (0, N_weighted].
    assert 0.0 < estimate.ess <= report.samples_total - report.pilot_samples


# ----------------------------------------------------------------------
# stratified estimator
# ----------------------------------------------------------------------
def test_stratified_agrees_with_fixed_within_ci():
    runner = BatchRunner()
    for policy in PAPER_POLICIES:
        fixed = run_estimate(
            runner, EstimatorSpec(kind="fixed"), 2006, 1200, policy
        )
        strat = run_estimate(
            runner,
            EstimatorSpec(kind="stratified", pilot_chips=120),
            2006,
            1200,
            policy,
        )
        for figure in ("regular.base", "horizontal.base"):
            f = _estimate(fixed, figure)
            s = _estimate(strat, figure)
            assert s.ci_low <= f.ci_high and f.ci_low <= s.ci_high, (
                policy.name,
                figure,
                (f.ci_low, f.ci_high),
                (s.ci_low, s.ci_high),
            )


def test_stratified_stratum_transform_preserves_measure():
    """Pooling K equiprobable strata reproduces the nominal marginal."""
    strata = 4
    per = 150
    pooled = []
    for h in range(strata):
        _, _, die_z = chip_shard(
            {"seed": 99, "tag": "mt", "start": 0, "stop": per,
             "stratum": [h, strata]}
        )
        values = [row[STRATUM_PARAM] for row in die_z]
        # Every value lies inside its stratum's quantile band.
        lo = -math.inf if h == 0 else ndtri(h / strata)
        hi = math.inf if h == strata - 1 else ndtri((h + 1) / strata)
        assert all(lo <= v <= hi for v in values), (h, min(values), max(values))
        pooled.extend(values)
    mean = sum(pooled) / len(pooled)
    var = sum(v * v for v in pooled) / len(pooled) - mean * mean
    # Balanced pooling across equiprobable strata is a plain N(0,1)
    # sample (up to Monte Carlo error at n=600).
    assert abs(mean) < 0.15
    assert abs(var - 1.0) < 0.2


@pytest.mark.parametrize(
    "transform", [{"shift": [0.5, 0.0, -0.3, 0.2]}, {"stratum": [4, 4]}]
)
def test_chip_job_refuses_a_malformed_die_slot_transform(transform):
    """A shift needs one component per die parameter, and a stratum
    index must name one of the strata."""
    job = {"seed": 99, "tag": "mt", "start": 0, "stop": 4, **transform}
    with pytest.raises(ConfigurationError):
        chip_shard(job)


def test_stratified_refuses_cap_smaller_than_pilot():
    runner = BatchRunner()
    spec = EstimatorSpec(kind="stratified", pilot_chips=64, strata=4)
    with pytest.raises(ConfigurationError):
        run_estimate(runner, spec, 1, 60, NOMINAL_POLICY)


# ----------------------------------------------------------------------
# determinism: worker counts, columnar parity, adaptive stopping
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [
        EstimatorSpec(kind="fixed"),
        EstimatorSpec(kind="adaptive", ci_target=0.05, batch_size=64),
        EstimatorSpec(kind="stratified", ci_target=0.05, pilot_chips=64),
        EstimatorSpec(kind="is", ci_target=0.05, pilot_chips=64),
    ],
    ids=lambda s: s.kind,
)
def test_estimators_bit_deterministic_across_worker_counts(tmp_path, spec):
    settings = ExperimentSettings(seed=41, chips=320)
    blobs = []
    for workers in (1, 4):
        engine = Engine(
            EngineConfig(workers=workers, cache_dir=tmp_path / f"w{workers}")
        )
        report = engine.estimate(settings, RELAXED_POLICY, estimator=spec)
        blobs.append(_blob(report))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("fixed", {}),
        ("adaptive", {"ci_target": 0.05, "batch_size": 64}),
        ("stratified", {"ci_target": 0.05, "pilot_chips": 64}),
        ("is", {"ci_target": 0.05, "pilot_chips": 64}),
    ],
)
def test_estimators_columnar_off_parity(monkeypatch, kind, extra):
    """With the columnar kernel swapped for the composed per-chip circuit
    oracle, every estimator payload is byte-identical."""
    runner = BatchRunner()
    spec = EstimatorSpec(kind=kind, **extra)
    fast = run_estimate(runner, spec, 17, 240, NOMINAL_POLICY)
    monkeypatch.setattr(
        analysis, "evaluate_population_pair",
        circuit_oracle.evaluate_population_pair,
    )
    slow = run_estimate(runner, spec, 17, 240, NOMINAL_POLICY)
    assert _blob(fast) == _blob(slow)


def test_adaptive_stops_early_on_tail_yield():
    runner = BatchRunner()
    tail = ConstraintPolicy("tail", 3.0, 8.0)
    adaptive = run_estimate(
        runner,
        EstimatorSpec(kind="adaptive", ci_target=0.02),
        2006,
        2000,
        tail,
    )
    fixed = run_estimate(
        runner, EstimatorSpec(kind="fixed"), 2006, 2000, tail
    )
    assert adaptive.samples_total * 5 <= fixed.samples_total
    for figure in ("regular.base", "horizontal.base"):
        a = _estimate(adaptive, figure)
        f = _estimate(fixed, figure)
        assert a.ci_halfwidth <= 0.02
        assert a.ci_low <= f.ci_high and f.ci_low <= a.ci_high


def test_adaptive_without_target_matches_fixed_exactly():
    runner = BatchRunner()
    adaptive = run_estimate(
        runner,
        EstimatorSpec(kind="adaptive", batch_size=100),
        5,
        300,
        NOMINAL_POLICY,
    )
    fixed = run_estimate(
        runner, EstimatorSpec(kind="fixed"), 5, 300, NOMINAL_POLICY
    )
    assert adaptive.samples_total == 300
    for figure in ("regular.base", "horizontal.base"):
        a = _estimate(adaptive, figure)
        f = _estimate(fixed, figure)
        assert a.estimate == f.estimate
        assert (a.ci_low, a.ci_high) == (f.ci_low, f.ci_high)


def test_adaptive_population_matches_fixed_prefix(tmp_path):
    """An adaptively-stopped population is a literal prefix population."""
    engine = Engine(EngineConfig(workers=2, cache_dir=tmp_path / "s"))
    settings = ExperimentSettings(seed=9, chips=400)
    spec = EstimatorSpec(kind="adaptive", ci_target=0.2, batch_size=100)
    adaptive = engine.population(settings, NOMINAL_POLICY, estimator=spec)
    stopped = adaptive.population
    assert stopped <= 400 and stopped % 100 == 0
    reference = engine.population(
        ExperimentSettings(seed=9, chips=stopped), NOMINAL_POLICY
    )
    for got, want in (
        (adaptive.regular, reference.regular),
        (adaptive.horizontal, reference.horizontal),
    ):
        assert got.chip_ids == want.chip_ids
        for name in ("band_delays", "band_leakage", "peripheral_leakage"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()


def test_population_rejects_weighted_estimators(tmp_path):
    engine = Engine(EngineConfig(workers=1, persistent=False))
    settings = ExperimentSettings(seed=1, chips=64)
    for kind in ("stratified", "is"):
        with pytest.raises(ConfigurationError):
            engine.population(
                settings, NOMINAL_POLICY, estimator=EstimatorSpec(kind=kind)
            )


# ----------------------------------------------------------------------
# one chip path: populations and estimates read the same chips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", PAPER_POLICIES, ids=lambda p: p.name)
def test_fixed_estimate_reports_the_population(policy):
    engine = Engine(EngineConfig(workers=1, persistent=False))
    settings = ExperimentSettings(seed=47, chips=300)
    population = engine.population(settings, policy)
    report = engine.estimate(
        settings, policy, estimator=EstimatorSpec(kind="fixed")
    )
    assert report.constraints == population.constraints
    for figure, horizontal in (
        ("regular.base", False), ("horizontal.base", True)
    ):
        ships = int(population.chips(horizontal).passes.sum())
        estimate = _estimate(report, figure)
        assert estimate.samples == population.population == 300
        assert estimate.estimate == ships / 300
        assert (estimate.ci_low, estimate.ci_high) == \
            wilson_interval(ships, 300)


def test_estimate_dispatch_carries_population_provenance(tmp_path):
    from repro.obs import configure_tracing, load_spans_counted
    from repro.obs.trace import disable_tracing

    trace = tmp_path / "t.jsonl"
    configure_tracing(trace)
    try:
        engine = Engine(EngineConfig(workers=1, persistent=False))
        settings = ExperimentSettings(seed=5, chips=32)
        engine.population(settings)
        engine.estimate(
            settings,
            estimator=EstimatorSpec(kind="adaptive", batch_size=16),
        )
    finally:
        disable_tracing()
    dispatches = [
        r["attrs"] for r in load_spans_counted(trace)[0]
        if r["name"] == "engine.dispatch"
    ]
    assert sorted(a["chips"] for a in dispatches) == [16, 16, 32]
    stamp = engine.provenance()
    for attrs in dispatches:
        assert attrs["tag"] == "chip" and attrs["jobs"] == 1
        assert attrs["sha"] == stamp["git_sha"]
        assert attrs["dirty"] == stamp["dirty"]
        assert attrs["config"] == stamp["config_hash"]


def test_adaptive_population_identical_at_one_and_two_workers():
    settings = ExperimentSettings(seed=53, chips=400)
    spec = EstimatorSpec(kind="adaptive", ci_target=0.05, batch_size=64)
    blobs = []
    for workers in (1, 2):
        engine = Engine(EngineConfig(workers=workers, persistent=False))
        result = engine.population(settings, RELAXED_POLICY, estimator=spec)
        assert result.population < 400  # stopped on its CI target
        blobs.append(json.dumps(encode_population(result), sort_keys=True))
    assert blobs[0] == blobs[1]


# ----------------------------------------------------------------------
# engine cache and key identity
# ----------------------------------------------------------------------
def test_estimate_warm_store_byte_identity(tmp_path):
    settings = ExperimentSettings(seed=23, chips=200)
    spec = EstimatorSpec(kind="adaptive", ci_target=0.05, batch_size=64)
    first = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "s"))
    cold = first.estimate(settings, NOMINAL_POLICY, estimator=spec)
    key = first.estimate_key(settings, NOMINAL_POLICY, spec)
    stored = first.store.path_for("estimate", key).read_bytes()
    second = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "s"))
    warm = second.estimate(settings, NOMINAL_POLICY, estimator=spec)
    assert _blob(warm) == _blob(cold)
    assert second.store.path_for("estimate", key).read_bytes() == stored
    # Warm call computed nothing.
    assert second.stats.jobs_cached_disk >= 1


def test_estimate_key_separates_specs_and_fixed_population_key_is_legacy():
    settings = ExperimentSettings(seed=2, chips=100)
    fixed_key = Engine.population_key(settings, NOMINAL_POLICY)
    assert fixed_key == Engine.population_key(
        settings, NOMINAL_POLICY, EstimatorSpec(kind="fixed")
    )
    adaptive_key = Engine.population_key(
        settings, NOMINAL_POLICY, EstimatorSpec(kind="adaptive", ci_target=0.1)
    )
    assert adaptive_key != fixed_key
    a = Engine.estimate_key(
        settings, NOMINAL_POLICY, EstimatorSpec(kind="is", tilt_scale=1.0)
    )
    b = Engine.estimate_key(
        settings, NOMINAL_POLICY, EstimatorSpec(kind="is", tilt_scale=1.5)
    )
    assert a != b


def test_fixed_estimate_keys_carry_confidence_and_cap(tmp_path):
    """A fixed estimate draws ``max_chips`` chips and bounds them at
    ``confidence``: specs that differ in either get their own key and
    their own numbers, from the memo and from the store."""
    settings = ExperimentSettings(seed=47, chips=300)
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    reference = Engine(EngineConfig(workers=1, persistent=False))
    for first, second in (
        (EstimatorSpec(kind="fixed", confidence=0.90),
         EstimatorSpec(kind="fixed", confidence=0.99)),
        (EstimatorSpec(kind="fixed"),
         EstimatorSpec(kind="fixed", max_chips=100)),
    ):
        assert Engine.estimate_key(settings, NOMINAL_POLICY, first) != \
            Engine.estimate_key(settings, NOMINAL_POLICY, second)
        engine.estimate(settings, NOMINAL_POLICY, estimator=first)
        expected = _blob(
            reference.estimate(settings, NOMINAL_POLICY, estimator=second)
        )
        assert _blob(
            engine.estimate(settings, NOMINAL_POLICY, estimator=second)
        ) == expected
        reopened = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
        assert _blob(
            reopened.estimate(settings, NOMINAL_POLICY, estimator=second)
        ) == expected
    capped = engine.estimate(
        settings, NOMINAL_POLICY, estimator=EstimatorSpec(kind="fixed", max_chips=100)
    )
    assert capped.samples_total == 100
    assert capped.spec["max_chips"] == 100


def test_estimate_emits_obs_gauges(tmp_path):
    engine = Engine(EngineConfig(workers=1, persistent=False))
    settings = ExperimentSettings(seed=3, chips=150)
    engine.estimate(
        settings,
        NOMINAL_POLICY,
        estimator=EstimatorSpec(kind="is", pilot_chips=50),
    )
    gauges = engine.metrics.snapshot()["gauges"]
    for figure in ("regular.base", "horizontal.base"):
        assert f"yield.estimate.{figure}" in gauges
        assert f"yield.ci_halfwidth.{figure}" in gauges
        assert f"yield.samples.{figure}" in gauges
        assert f"yield.ess.{figure}" in gauges
    assert gauges["yield.ess.regular.base"] <= gauges[
        "yield.samples.regular.base"
    ]


# ----------------------------------------------------------------------
# satellite fixes: zero-population guards
# ----------------------------------------------------------------------
def test_loss_breakdown_zero_population_yields_zero():
    empty = LossBreakdown(base_counts={}, scheme_losses={"s": {}}, population=0)
    assert empty.yield_with(None) == 0.0
    assert empty.yield_with("s") == 0.0
    assert empty.loss_reduction("s") == 0.0


def test_loss_breakdown_zero_base_loss_reduction_is_zero():
    breakdown = LossBreakdown(
        base_counts={LossReason.LEAKAGE: 0},
        scheme_losses={"s": {LossReason.LEAKAGE: 0}},
        population=10,
    )
    assert breakdown.loss_reduction("s") == 0.0
    assert breakdown.yield_with(None) == 1.0


# ----------------------------------------------------------------------
# serve layer
# ----------------------------------------------------------------------
def test_serve_estimate_warm_repeat_is_byte_identical(tmp_path):
    from repro.serve import ServeClient, ServeConfig, ServerThread

    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    try:
        client = ServeClient(host, port)
        body = {
            "seed": 31,
            "chips": 150,
            "policy": "relaxed",
            "estimator": {"kind": "is", "pilot_chips": 50},
        }
        first = client._request("POST", "/v1/estimate", body, raw=True)
        second = client._request("POST", "/v1/estimate", body, raw=True)
        assert first == second
        payload = json.loads(first)
        assert payload["kind"] == "estimate"
        result = payload["result"]
        assert result["kind"] == "is"
        assert {e["figure"] for e in result["estimates"]} == {
            "regular.base",
            "horizontal.base",
        }
        counters = engine.metrics.snapshot()["counters"]
        assert counters.get("serve.request.warm", 0) >= 1
        client.close()
    finally:
        thread.stop()


def test_serve_estimate_rejects_bad_specs(tmp_path):
    from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

    engine = Engine(EngineConfig(workers=1, persistent=False))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    try:
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError) as err:
                client.estimate(
                    seed=1, chips=64, estimator={"kind": "magic"}
                )
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.estimate(
                    seed=1, chips=64, estimator={"ci_tgt": 0.02}
                )
            assert err.value.status == 400
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# experiment + bench surfaces
# ----------------------------------------------------------------------
def test_estimators_experiment_runs_and_reports_all_kinds(tmp_path):
    from repro.experiments.runner import run_experiment

    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "exp"))
    result = run_experiment(
        "estimators", ExperimentSettings(seed=2006, chips=300), engine
    )
    kinds = {row[1] for row in result.rows}
    assert kinds == {"fixed", "adaptive", "stratified", "is"}
    policies = {row[0] for row in result.rows}
    assert policies == {p.name for p in PAPER_POLICIES}
