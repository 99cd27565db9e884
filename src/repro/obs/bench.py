"""Benchmark harness and provenance-stamped trend store.

The repo's hot paths — engine dispatch, the pipeline simulator, the
YAPD/H-YAPD/VACA classification sweeps — had no recorded perf
trajectory, so a regression would ship silently. This module gives them
one:

* **Suites** (:data:`SUITES`) — small, deterministic benchmark sets that
  exercise one hot path each through the real :class:`Engine` (a scratch,
  non-persistent engine, memo cleared between repeats, so every timed
  run recomputes).
* **Harness** (:func:`run_suite`) — warmup + repeated timed runs on
  ``time.perf_counter`` and a per-benchmark engine ``MetricsRegistry``
  snapshot; :func:`make_record` adds the process's peak RSS and CPU
  time, read as the record is made.
* **Trend store** (:func:`load_history` / :func:`append_history`) — a
  schema-versioned ``BENCH_history.json`` holding one provenance-stamped
  record per benchmark per run. Individual garbled records are skipped
  with a count (the same corruption-tolerance policy as the result
  store); a wrong *file* schema version refuses loudly, because silently
  reinterpreting old timings would poison every later comparison.

``repro bench run|compare|report`` is the CLI surface;
:mod:`repro.obs.regress` turns two runs into verdicts and
:mod:`repro.obs.report` renders the history as a self-contained HTML
page.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.obs.provenance import config_hash
from repro.obs.resources import read_resources

__all__ = [
    "Benchmark",
    "BenchResult",
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_HISTORY_PATH",
    "SUITES",
    "SuitePair",
    "append_history",
    "available_suites",
    "load_history",
    "make_record",
    "new_run_id",
    "run_ids",
    "run_suite",
    "samples_by_bench",
    "save_history",
    "suite_pairs",
]

#: Bump when the record layout changes incompatibly; gates every load.
HISTORY_SCHEMA_VERSION = 1

#: Default trend-store location (repo root, committed-friendly).
DEFAULT_HISTORY_PATH = pathlib.Path("BENCH_history.json")


# ----------------------------------------------------------------------
# benchmark definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Benchmark:
    """One named benchmark.

    ``prepare(engine)`` does the untimed setup (building settings,
    computing a population the timed body only *classifies*, ...) and
    returns the zero-argument thunk the harness times. A ``cleanup``
    attribute on the thunk, when present, runs after the last repeat.
    """

    name: str
    prepare: Callable[["object"], Callable[[], object]]


def _bench_settings(**overrides):
    from repro.experiments.common import ExperimentSettings

    base = {
        "seed": 2006,
        "chips": 64,
        "trace_length": 2500,
        "warmup": 500,
        "benchmarks": ("gzip",),
    }
    base.update(overrides)
    return ExperimentSettings(**base)


def _prepare_population(engine):
    settings = _bench_settings(chips=64)

    def run():
        engine.clear_memory()
        return engine.population(settings)

    return run


def _store_roundtrip(store, cleanup):
    """The timed body of the store cases: 40 saves, then 40 loads."""
    payload = {"rows": [[i, i * 0.5, f"cfg-{i}"] for i in range(200)]}
    keys = [
        store.key_for("bench", {"index": i, "payload": "fixed"})
        for i in range(40)
    ]

    def run():
        for key in keys:
            store.save("bench", key, payload)
        loaded = 0
        for key in keys:
            if store.load("bench", key) is not None:
                loaded += 1
        return loaded

    run.cleanup = cleanup
    return run


def _prepare_store_roundtrip(engine):
    from repro.engine.store import ResultStore

    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
    return _store_roundtrip(ResultStore(pathlib.Path(tmp.name)), tmp.cleanup)


def _prepare_store_10k(engine):
    """The store round trip on 10,000 entries under the default cap."""
    from repro.engine.core import EngineConfig
    from repro.engine.store import ResultStore

    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-store10k-")
    root = pathlib.Path(tmp.name)
    seeder = ResultStore(root)  # no cap, so seeding stays linear
    for i in range(10_000):
        seeder.save(
            "bench", seeder.key_for("bench", {"seed": i}), {"index": i}
        )
    store = ResultStore(root, EngineConfig().max_cache_bytes)
    return _store_roundtrip(store, tmp.cleanup)


def _prepare_population_store(engine):
    """A 2000-chip population's store round trip: encode and save it,
    then load and decode it."""
    from repro.engine.codec import decode_population, encode_population
    from repro.engine.store import ResultStore

    population = engine.population(_bench_settings(chips=2000))
    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-popstore-")
    store = ResultStore(pathlib.Path(tmp.name))
    key = store.key_for("population", {"bench": "population_store"})

    def run():
        store.save("population", key, encode_population(population))
        return decode_population(store.load("population", key))

    run.cleanup = tmp.cleanup
    return run


def _prepare_simulation(benchmark: str):
    def prepare(engine):
        settings = _bench_settings(
            chips=16, trace_length=10_000, benchmarks=(benchmark,)
        )

        def run():
            engine.clear_memory()
            return engine.simulate(settings, benchmark)

        return run

    return prepare


def _prepare_breakdown(horizontal: bool):
    def prepare(engine):
        from repro.experiments.common import scheme_set

        pop = engine.population(_bench_settings(chips=2000))
        schemes = scheme_set(horizontal=horizontal)

        def run():
            return pop.breakdown(schemes, horizontal=horizontal)

        return run

    return prepare


def _serve_client(engine):
    """A keep-alive client of a server over ``engine``, and the cleanup
    that closes both."""
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    thread = ServerThread(engine, ServeConfig(port=0))
    client = ServeClient(*thread.start())

    def cleanup():
        client.close()
        thread.stop()

    return client, cleanup


def _prepare_serve_warm(engine):
    """Warm-store query latency through the full HTTP stack."""
    client, cleanup = _serve_client(engine)
    client.population(seed=2006, chips=64)  # make the query warm

    def run():
        return client.population(seed=2006, chips=64)

    run.cleanup = cleanup
    return run


def _prepare_serve_cold_simulate(engine):
    """Cold simulation latency through the full HTTP stack: each repeat
    asks for a trace seed no one asked for yet (100 warmup and 200
    measured instructions, as in perfbench's serve-mix), so the server
    admits, batches, compiles the trace and simulates it."""
    client, cleanup = _serve_client(engine)
    seeds = itertools.count(1_000_000)

    def run():
        return client.simulate(
            "gzip", seed=next(seeds), trace_length=200, warmup=100
        )

    run.cleanup = cleanup
    return run


def _prepare_serve_burst(engine):
    """Coalesced-burst throughput: N identical cold queries at once.

    Each timed run clears the memo, so the burst is cold every repeat;
    the single-flight path should collapse it onto one dispatch.
    """
    import threading as _threading

    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    clients = 8

    def run():
        engine.clear_memory()
        barrier = _threading.Barrier(clients)

        def one(index: int) -> None:
            barrier.wait()
            with ServeClient(host, port, client_id=f"bench-{index}") as c:
                c.population(seed=2006, chips=128)

        workers = [
            _threading.Thread(target=one, args=(i,)) for i in range(clients)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return clients

    run.cleanup = thread.stop
    return run


#: The tail-yield constraint policy of the estimator suite: permissive
#: limits (mean + 3 sigma delay, 8x mean leakage) push the yield to
#: ~0.985, where brute force wastes chips measuring an almost-sure pass
#: — the regime the smart estimators exist for.
_TAIL_POLICY_PARAMS = ("tail", 3.0, 8.0)


def _prepare_estimator(kind: str):
    """Estimator benchmark: one kind at a matched CI target on the tail.

    Every kind gets the same 2000-chip budget and (for the sequential
    kinds) the same 0.02 CI target, so the sample counts in the recorded
    ``metrics.estimator`` snapshot are directly comparable — the
    fixed-vs-adaptive-vs-IS samples ratio is the suite's headline.
    """

    def prepare(engine):
        from repro.yieldmodel.constraints import ConstraintPolicy
        from repro.yieldmodel.estimators import EstimatorSpec

        settings = _bench_settings(chips=2000)
        policy = ConstraintPolicy(*_TAIL_POLICY_PARAMS)
        spec = {
            "fixed": EstimatorSpec(kind="fixed"),
            "adaptive": EstimatorSpec(kind="adaptive", ci_target=0.02),
            "stratified": EstimatorSpec(
                kind="stratified", ci_target=0.02, pilot_chips=160
            ),
            "is": EstimatorSpec(
                kind="is", ci_target=0.02, pilot_chips=150
            ),
        }[kind]

        def run():
            engine.clear_memory()
            return engine.estimate(settings, policy, estimator=spec)

        return run

    return prepare


#: Suite name -> benchmark list. Each suite is one hot path the ROADMAP
#: cares about; every suite stays in CI-smoke territory (seconds).
SUITES: Dict[str, List[Benchmark]] = {
    "engine": [
        Benchmark("engine.population", _prepare_population),
        Benchmark("engine.store_roundtrip", _prepare_store_roundtrip),
        Benchmark("engine.store_10k", _prepare_store_10k),
        Benchmark("engine.population_store", _prepare_population_store),
    ],
    "pipeline": [
        Benchmark("pipeline.sim_gzip", _prepare_simulation("gzip")),
        Benchmark("pipeline.sim_mcf", _prepare_simulation("mcf")),
    ],
    "schemes": [
        Benchmark("schemes.breakdown_vertical", _prepare_breakdown(False)),
        Benchmark("schemes.breakdown_horizontal", _prepare_breakdown(True)),
    ],
    "serve": [
        Benchmark("serve.warm_query", _prepare_serve_warm),
        Benchmark("serve.coalesced_burst", _prepare_serve_burst),
        Benchmark("serve.cold_simulate", _prepare_serve_cold_simulate),
    ],
    "estimators": [
        Benchmark("estimators.fixed_tail", _prepare_estimator("fixed")),
        Benchmark("estimators.adaptive_tail", _prepare_estimator("adaptive")),
        Benchmark(
            "estimators.stratified_tail", _prepare_estimator("stratified")
        ),
        Benchmark("estimators.is_tail", _prepare_estimator("is")),
    ],
}


def available_suites() -> List[str]:
    """All suite names, in presentation order."""
    return list(SUITES)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
@dataclass
class BenchResult:
    """Raw outcome of one benchmark: timing samples plus context."""

    suite: str
    bench: str
    samples: List[float]
    warmup: int
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)


def run_suite(
    suite: str,
    repeats: int = 5,
    warmup: int = 1,
    workers: int = 1,
) -> List[BenchResult]:
    """Run every benchmark of ``suite`` and return raw results.

    A scratch non-persistent :class:`Engine` is built per suite run (the
    process-wide engine and its ``.repro_cache/`` are never touched), and
    its memo is cleared by the benchmarks that must recompute, so the
    numbers measure compute — not cache reads. Each case starts with an
    empty memo and an empty live-chip index, so it never times less
    work than it names by reading chips an earlier case computed.
    """
    from repro.engine.core import Engine, EngineConfig
    from repro.yieldmodel.analysis import forget_live_chips

    if suite not in SUITES:
        raise ConfigurationError(
            f"unknown bench suite {suite!r}; available: {available_suites()}"
        )
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    if warmup < 0:
        raise ConfigurationError("warmup must be >= 0")
    engine = Engine(EngineConfig(workers=workers, persistent=False))
    results: List[BenchResult] = []
    for benchmark in SUITES[suite]:
        engine.clear_memory()
        forget_live_chips()
        thunk = benchmark.prepare(engine)
        try:
            for _ in range(warmup):
                thunk()
            samples: List[float] = []
            for _ in range(repeats):
                start = time.perf_counter()
                thunk()
                samples.append(time.perf_counter() - start)
        finally:
            cleanup = getattr(thunk, "cleanup", None)
            if cleanup is not None:
                cleanup()
        snapshot = engine.metrics.snapshot()
        metrics: Dict[str, object] = {"counters": snapshot["counters"]}
        # Engine gauges lead; breakdown-level estimates land in the
        # process-wide registry (scheme benches publish there).
        estimator = _estimator_snapshot(
            {**get_metrics().snapshot()["gauges"], **snapshot["gauges"]}
        )
        if estimator:
            metrics["estimator"] = estimator
        results.append(
            BenchResult(
                suite=suite,
                bench=benchmark.name,
                samples=samples,
                warmup=warmup,
                metrics=metrics,
            )
        )
        engine.metrics.reset()
    return results


def _estimator_snapshot(gauges: Dict[str, float]) -> Dict[str, object]:
    """Statistical-efficiency readout from the ``yield.*`` gauges.

    For every published estimate: the point value, the 95% CI
    half-width, the sample count, and ``samples_per_ci_width`` — how
    many Monte Carlo chips bought one unit of interval width (higher is
    costlier; a smarter estimator drives it down). Recorded into the
    bench history so estimator efficiency trends alongside wall-clock.
    """
    out: Dict[str, object] = {}
    for name, value in gauges.items():
        if not name.startswith("yield.estimate."):
            continue
        key = name[len("yield.estimate."):]
        half = gauges.get(f"yield.ci_halfwidth.{key}")
        samples = gauges.get(f"yield.samples.{key}")
        if half is None or samples is None:
            continue
        width = 2.0 * float(half)
        entry: Dict[str, object] = {
            "estimate": round(float(value), 6),
            "ci_halfwidth": round(float(half), 6),
            "samples": int(samples),
            "samples_per_ci_width": (
                round(float(samples) / width, 3) if width > 0 else None
            ),
        }
        ess = gauges.get(f"yield.ess.{key}")
        if ess is not None:
            entry["ess"] = round(float(ess), 3)
        out[key] = entry
    return out


# ----------------------------------------------------------------------
# records and the trend store
# ----------------------------------------------------------------------
def make_record(
    result: BenchResult,
    run_id: str,
    created: float,
    provenance: Dict[str, object],
) -> Dict[str, object]:
    """One schema-versioned, provenance-stamped history record."""
    return {
        "schema": HISTORY_SCHEMA_VERSION,
        "run_id": run_id,
        "suite": result.suite,
        "bench": result.bench,
        "created": round(created, 3),
        "repeats": len(result.samples),
        "warmup": result.warmup,
        "samples": [round(s, 9) for s in result.samples],
        "median": round(result.median, 9),
        "mean": round(result.mean, 9),
        "min": round(min(result.samples), 9),
        "max": round(max(result.samples), 9),
        "provenance": provenance,
        "metrics": result.metrics,
        "resources": {
            key: value for key, value in read_resources().items()
            if key != "rss_bytes" and value
        },
    }


def new_run_id(
    suite: str, created: float, provenance: Dict[str, object]
) -> str:
    """Stable short id tying one suite run's records together."""
    return config_hash(
        {"suite": suite, "created": created, "provenance": provenance}
    )


def _valid_record(record: object) -> bool:
    if not isinstance(record, dict):
        return False
    samples = record.get("samples")
    return (
        isinstance(record.get("run_id"), str)
        and isinstance(record.get("suite"), str)
        and isinstance(record.get("bench"), str)
        and isinstance(samples, list)
        and len(samples) > 0
        and all(isinstance(s, (int, float)) for s in samples)
        and isinstance(record.get("provenance"), dict)
    )


def load_history(path: pathlib.Path) -> Tuple[List[Dict[str, object]], int]:
    """Load the trend store: ``(records, skipped_record_count)``.

    A missing file is an empty history. A file that is not JSON, not the
    expected shape, or carries a different schema version raises
    :class:`ConfigurationError` — old histories must be migrated or moved
    aside explicitly, never silently reinterpreted. Records that are
    individually malformed are skipped and counted.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return [], 0
    except OSError as exc:
        raise ConfigurationError(f"cannot read bench history {path}: {exc}")
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(
            f"bench history {path} is not valid JSON ({exc}); "
            "move it aside to start a fresh history"
        )
    if not isinstance(document, dict) or "records" not in document:
        raise ConfigurationError(
            f"bench history {path} has an unexpected shape "
            "(expected an object with a 'records' list)"
        )
    version = document.get("version")
    if version != HISTORY_SCHEMA_VERSION:
        raise ConfigurationError(
            f"bench history {path} has schema version {version!r}, "
            f"this build writes {HISTORY_SCHEMA_VERSION}; "
            "move the file aside to start a fresh history"
        )
    records: List[Dict[str, object]] = []
    skipped = 0
    for record in document["records"]:
        if _valid_record(record):
            records.append(record)
        else:
            skipped += 1
    return records, skipped


def save_history(path: pathlib.Path, records: Sequence[Dict[str, object]]) -> None:
    """Atomically write the whole trend store."""
    path = pathlib.Path(path)
    document = {
        "version": HISTORY_SCHEMA_VERSION,
        "records": list(records),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-bench-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def append_history(
    path: pathlib.Path, new_records: Sequence[Dict[str, object]]
) -> int:
    """Append records to the store; returns the total record count."""
    records, _skipped = load_history(path)
    records.extend(new_records)
    save_history(path, records)
    return len(records)


# ----------------------------------------------------------------------
# history queries (the compare/report verbs build on these)
# ----------------------------------------------------------------------
def run_ids(records: Sequence[Dict[str, object]]) -> List[str]:
    """Distinct run ids in first-appearance (chronological) order."""
    seen: List[str] = []
    for record in records:
        run_id = record["run_id"]
        if run_id not in seen:
            seen.append(run_id)
    return seen


def samples_by_bench(
    records: Sequence[Dict[str, object]],
    run_id: Optional[str] = None,
    suite: Optional[str] = None,
) -> Dict[str, List[float]]:
    """``{bench: samples}`` for one run (or the whole history slice)."""
    out: Dict[str, List[float]] = {}
    for record in records:
        if run_id is not None and record["run_id"] != run_id:
            continue
        if suite is not None and record["suite"] != suite:
            continue
        out[record["bench"]] = [float(s) for s in record["samples"]]
    return out


@dataclass(frozen=True)
class SuitePair:
    """One suite's latest run and the baseline run it is judged against."""

    suite: str
    run_id: str
    #: ``None`` when a baseline file holds no run of this suite.
    baseline_id: Optional[str]
    #: Where the baseline came from, for the compare header.
    origin: str
    current: Dict[str, List[float]]
    baseline: Dict[str, List[float]]


def suite_pairs(
    records: Sequence[Dict[str, object]], baseline: Optional[str] = None
) -> List[SuitePair]:
    """Pair each suite's latest run in ``records`` with its baseline.

    A history may interleave runs of different suites (CI writes one
    suite per run), so runs are paired within a suite. The baseline is
    the suite's previous run (the latest run itself when it is the only
    one), or, when ``baseline`` is given, the run of ``records`` whose id
    it prefixes, or the suite's latest run in the history file at that
    path.
    """
    others: Optional[List[Dict[str, object]]] = None
    named: Optional[str] = None
    if baseline is not None and pathlib.Path(baseline).is_file():
        others = load_history(pathlib.Path(baseline))[0]
        if not others:
            raise ConfigurationError(
                f"baseline file {baseline} holds no valid records"
            )
    elif baseline is not None:
        ids = run_ids(records)
        matches = [i for i in ids if i.startswith(baseline)]
        if len(matches) != 1:
            raise ConfigurationError(
                f"baseline {baseline!r} matches {len(matches)} runs in "
                f"the history; known run ids: {ids}"
            )
        named = matches[0]
    pairs: List[SuitePair] = []
    for suite in dict.fromkeys(str(r["suite"]) for r in records):
        ids = run_ids([r for r in records if r["suite"] == suite])
        source = records
        if others is not None:
            source = others
            theirs = run_ids([r for r in others if r["suite"] == suite])
            base_id = theirs[-1] if theirs else None
            origin = f"file {baseline} " + (
                f"(run {base_id})" if base_id else f"(no run of suite {suite})"
            )
        elif named is not None:
            base_id, origin = named, f"run {named}"
        else:
            base_id = ids[-2] if len(ids) >= 2 else ids[-1]
            origin = f"run {base_id}" + (
                "" if len(ids) >= 2 else
                " (latest run compared against itself: only one run recorded)"
            )
        pairs.append(SuitePair(
            suite=suite,
            run_id=ids[-1],
            baseline_id=base_id,
            origin=origin,
            current=samples_by_bench(records, run_id=ids[-1], suite=suite),
            baseline=(
                samples_by_bench(source, run_id=base_id, suite=suite)
                if base_id is not None else {}
            ),
        ))
    return pairs
