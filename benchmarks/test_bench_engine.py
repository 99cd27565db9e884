"""Benchmark: engine scaling — serial vs parallel population, cache hits.

Records three numbers into the bench JSON trajectory (``extra_info``):

* ``serial_s`` — cold 1-worker wall time for one Monte Carlo population,
* ``parallel_s`` / ``parallel_speedup`` — the same population cold at
  ``REPRO_WORKERS`` (or 2) workers,
* ``cache_hit_s`` / ``cache_hit_speedup`` — a fresh engine re-loading the
  population from the persistent store (the timed region).

The population size is deliberately smaller than the paper's 2000 chips
(``REPRO_BENCH_ENGINE_CHIPS`` overrides) so the benchmark tracks engine
overheads rather than raw circuit-model throughput.
"""

from __future__ import annotations

import time

from repro.core.validation import env_int
from repro.engine import configure_engine, reset_engine
from repro.experiments import ExperimentSettings


def test_bench_engine_population(benchmark, tmp_path, request):
    request.addfinalizer(reset_engine)  # leave the session engine untouched
    chips = env_int("REPRO_BENCH_ENGINE_CHIPS", 600)
    workers = max(2, env_int("REPRO_WORKERS", 2))
    settings = ExperimentSettings(
        seed=2006, chips=chips, trace_length=1000, warmup=100,
        benchmarks=("gzip",),
    )

    engine = configure_engine(workers=1, cache_dir=tmp_path / "serial")
    start = time.perf_counter()
    serial_pop = engine.population(settings)
    serial_s = time.perf_counter() - start

    engine = configure_engine(workers=workers, cache_dir=tmp_path / "pool")
    start = time.perf_counter()
    parallel_pop = engine.population(settings)
    parallel_s = time.perf_counter() - start
    assert parallel_pop.population == serial_pop.population == chips

    # Warm-store load in a fresh engine (fresh-process semantics).
    engine = configure_engine(workers=1, cache_dir=tmp_path / "pool")
    warm_pop = benchmark.pedantic(
        engine.population, args=(settings,), rounds=1, iterations=1
    )
    assert engine.stats.jobs_run == 0
    assert engine.stats.jobs_cached_disk == 1
    assert warm_pop.population == chips

    cache_hit_s = max(benchmark.stats.stats.mean, 1e-9)
    benchmark.extra_info["chips"] = chips
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["serial_s"] = round(serial_s, 4)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 4)
    benchmark.extra_info["parallel_speedup"] = round(serial_s / parallel_s, 3)
    benchmark.extra_info["cache_hit_s"] = round(cache_hit_s, 4)
    benchmark.extra_info["cache_hit_speedup"] = round(serial_s / cache_hit_s, 3)
