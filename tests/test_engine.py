"""Tests for the parallel execution engine and persistent result store."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from repro.engine import (
    Engine,
    EngineConfig,
    EngineStats,
    ResultStore,
    ShardedExecutor,
)
from repro.engine.codec import encode_population
from repro.engine.store import SCHEMA_VERSION, canonical_json
from repro.experiments import ExperimentSettings, run_experiment

#: Small-but-nontrivial settings shared by the determinism tests.
SMALL = dict(seed=77, chips=48, trace_length=1500, warmup=500,
             benchmarks=("gzip", "mcf"))

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)


def _subprocess_env(**extra) -> dict:
    """This environment plus ``extra``, with this checkout's ``src`` first
    on a fresh interpreter's import path."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _stored_engine(path, workers: int = 1) -> Engine:
    """A fresh engine (empty memo) on the store at ``path``."""
    return Engine(EngineConfig(workers=workers, cache_dir=path))


def population_digest(pop) -> str:
    """Canonical digest of a population (architecture + constraints)."""
    body = canonical_json(encode_population(pop))
    return hashlib.sha256(body.encode()).hexdigest()


# ----------------------------------------------------------------------
# result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for("simulation", {"a": 1})
        assert store.load("simulation", key) is None
        store.save("simulation", key, {"x": [1.5, None, "y"]})
        assert store.load("simulation", key) == {"x": [1.5, None, "y"]}

    def test_key_depends_on_identity_and_kind(self):
        a = ResultStore.key_for("population", {"seed": 1})
        b = ResultStore.key_for("population", {"seed": 2})
        c = ResultStore.key_for("simulation", {"seed": 1})
        assert len({a, b, c}) == 3
        # key order inside the identity must not matter
        assert ResultStore.key_for("population", {"a": 1, "b": 2}) == \
            ResultStore.key_for("population", {"b": 2, "a": 1})

    def test_corrupt_entry_is_discarded_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for("population", {"seed": 3})
        store.save("population", key, {"ok": True})
        path = store.path_for("population", key)
        path.write_text("{not json", encoding="utf-8")
        assert store.load("population", key) is None
        assert not path.exists()  # bad entry removed for recompute

    def test_wrong_version_is_discarded(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for("population", {"seed": 4})
        path = store.path_for("population", key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"version": SCHEMA_VERSION + 1, "kind": "population",
                        "payload": {}}),
            encoding="utf-8",
        )
        assert store.load("population", key) is None

    def test_lru_cap_evicts_stalest(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=300)
        keys = []
        for i in range(6):
            key = store.key_for("simulation", {"i": i})
            keys.append(key)
            store.save("simulation", key, {"blob": "x" * 60})
            stamp = time.time() - (100 - i)  # older saves look staler
            os.utime(store.path_for("simulation", key), (stamp, stamp))
        store.save("simulation", store.key_for("simulation", {"i": 99}),
                   {"blob": "x" * 60})
        info = store.info()
        assert info["bytes"] <= 300
        # the newest entry survived, the oldest did not
        assert store.load("simulation", keys[0]) is None
        assert store.load("simulation",
                          store.key_for("simulation", {"i": 99})) is not None


# ----------------------------------------------------------------------
# sharded executor
# ----------------------------------------------------------------------
def _double(job):
    return job * 2


def _fail_in_worker(job):
    parent_pid, value = job
    if os.getpid() != parent_pid:
        raise RuntimeError("worker crash")
    return value * 10


def _hang_in_worker(job):
    parent_pid, value = job
    if os.getpid() != parent_pid:
        time.sleep(3.0)
    return value


class TestShardedExecutor:
    def test_serial_path(self):
        stats = EngineStats(workers=1)
        out = ShardedExecutor(workers=1).run(_double, [1, 2, 3], stats)
        assert out == [2, 4, 6]
        assert stats.jobs_run == 3
        assert stats.busy_seconds >= 0.0

    def test_pool_matches_serial_order(self):
        out = ShardedExecutor(workers=2).run(_double, list(range(7)))
        assert out == [i * 2 for i in range(7)]

    def test_crashed_worker_degrades_in_process(self):
        stats = EngineStats(workers=2)
        jobs = [(os.getpid(), 1), (os.getpid(), 2)]
        out = ShardedExecutor(workers=2).run(_fail_in_worker, jobs, stats)
        assert out == [10, 20]
        assert stats.jobs_retried == 2  # one retry each...
        assert stats.jobs_degraded == 2  # ...then in-process fallback

    def test_timeout_degrades_in_process(self):
        stats = EngineStats(workers=2)
        jobs = [(os.getpid(), 5), (os.getpid(), 6)]
        out = ShardedExecutor(workers=2, timeout=0.4).run(
            _hang_in_worker, jobs, stats
        )
        assert out == [5, 6]
        assert stats.jobs_degraded == 2


# ----------------------------------------------------------------------
# determinism across worker counts and processes
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_population_digest_identical_at_any_worker_count(self, tmp_path):
        digests = set()
        for workers in (1, 2, 4):
            engine = _stored_engine(tmp_path / f"w{workers}", workers)
            settings = ExperimentSettings(**SMALL)
            digests.add(population_digest(engine.population(settings)))
        assert len(digests) == 1

    def test_store_roundtrip_is_bit_identical(self, tmp_path):
        settings = ExperimentSettings(**SMALL)
        engine = _stored_engine(tmp_path)
        fresh = population_digest(engine.population(settings))
        engine = _stored_engine(tmp_path)
        loaded = engine.population(settings)
        assert engine.stats.jobs_cached_disk == 1
        assert population_digest(loaded) == fresh

    def test_cache_hit_across_fresh_processes(self, tmp_path):
        script = (
            "from repro.engine import Engine\n"
            "from repro.experiments import ExperimentSettings\n"
            f"s = ExperimentSettings(seed={SMALL['seed']}, chips=32,"
            " trace_length=1000, warmup=100, benchmarks=('gzip',))\n"
            "e = Engine()\n"
            "e.population(s)\n"
            "print('RUN', e.stats.jobs_run, 'DISK', e.stats.jobs_cached_disk)\n"
        )
        env = _subprocess_env(REPRO_CACHE_DIR=str(tmp_path))
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.strip())
        assert outputs[0] == "RUN 1 DISK 0"  # cold: computed
        assert outputs[1] == "RUN 0 DISK 1"  # fresh process: pure disk hit

    def test_experiments_byte_identical_serial_vs_parallel(self, tmp_path):
        texts = {}
        for workers in (1, 4):
            engine = Engine(EngineConfig(workers=workers, persistent=False))
            settings = ExperimentSettings(**SMALL)
            for name in ("fig8", "table2", "fig9"):
                texts.setdefault(name, set()).add(
                    run_experiment(name, settings, engine).text
                )
        for name, variants in texts.items():
            assert len(variants) == 1, f"{name} differs across worker counts"


    def test_two_argument_run_experiment_runs_on_the_configured_engine(
        self, tmp_path
    ):
        """The benchmark harness's call, in a fresh process as it makes
        it: ``configure_engine`` and then ``run_experiment`` with no
        engine, after which the harness reads the configured engine's
        stats. The experiment must count its job there and store its
        population under that engine's directory, not the environment's.
        """
        script = (
            "import sys\n"
            "from repro.engine import configure_engine\n"
            "from repro.experiments import ExperimentSettings, run_experiment\n"
            "e = configure_engine(workers=1, cache_dir=sys.argv[1])\n"
            "run_experiment('table2', ExperimentSettings(seed=12, chips=40))\n"
            "runs = e.metrics.snapshot()['counters']['experiment.runs.table2']\n"
            "print('RUN', e.stats.jobs_run, 'TABLE2', int(runs))\n"
        )
        store, elsewhere = tmp_path / "configured", tmp_path / "environment"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(store)],
            capture_output=True, text=True, timeout=120,
            env=_subprocess_env(REPRO_CACHE_DIR=str(elsewhere)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "RUN 1 TABLE2 1"
        assert len(list((store / "population").glob("*.json"))) == 1
        assert not elsewhere.exists()


# ----------------------------------------------------------------------
# warm cache behaviour
# ----------------------------------------------------------------------
class TestWarmCache:
    def test_warm_store_skips_all_jobs(self, tmp_path):
        settings = ExperimentSettings(**SMALL)
        engine = _stored_engine(tmp_path)
        run_experiment("fig8", settings, engine)
        run_experiment("fig9", settings, engine)

        # Fresh engine (fresh process semantics: empty memo, same store).
        engine = _stored_engine(tmp_path)
        run_experiment("fig8", settings, engine)
        run_experiment("fig9", settings, engine)
        assert engine.stats.jobs_run == 0
        assert engine.stats.jobs_cached_disk >= 1 + 6  # population + sims

    def test_clear_memory_keeps_persistent_store(self, tmp_path):
        settings = ExperimentSettings(**SMALL)
        engine = _stored_engine(tmp_path)
        engine.population(settings)
        engine.clear_memory()
        run, disk = engine.stats.jobs_run, engine.stats.jobs_cached_disk
        engine.population(settings)
        assert engine.stats.jobs_run == run
        assert engine.stats.jobs_cached_disk == disk + 1

    def test_memo_returns_identical_object(self, tmp_path):
        settings = ExperimentSettings(**SMALL)
        engine = _stored_engine(tmp_path)
        assert engine.population(settings) is engine.population(settings)
        a = engine.simulate(settings, "gzip")
        assert a is engine.simulate(settings, "gzip")

    def test_simulate_many_handles_duplicates_and_order(self, tmp_path):
        settings = ExperimentSettings(**SMALL)
        engine = _stored_engine(tmp_path)
        specs = [
            ("gzip", None, None),
            ("mcf", None, None),
            ("gzip", None, None),  # duplicate of the first
            ("gzip", (4, 4, 4, None), None),
        ]
        results = engine.simulate_many(settings, specs)
        assert results[0] is results[2]
        assert results[1].instructions > 0
        # distinct configuration => distinct cache entry
        assert results[3] is not results[0]
        assert results[3].hierarchy_stats != results[0].hierarchy_stats


class TestEngineConfigFromEnv:
    def test_rejects_non_positive_workers(self, monkeypatch):
        from repro.core.errors import ConfigurationError
        from repro.engine.core import EngineConfig

        for bad in ("0", "-3"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
                EngineConfig.from_env()

    def test_rejects_non_positive_job_timeout(self, monkeypatch):
        from repro.core.errors import ConfigurationError
        from repro.engine.core import EngineConfig

        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0")
        with pytest.raises(ConfigurationError, match="REPRO_JOB_TIMEOUT"):
            EngineConfig.from_env()

    def test_accepts_positive_values(self, monkeypatch):
        from repro.engine.core import EngineConfig

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert EngineConfig.from_env().workers == 3


class TestInflightDedup:
    def test_progress_callback_reports_completion(self, tmp_path):
        engine = _stored_engine(tmp_path)
        settings = ExperimentSettings(seed=125, chips=40)
        seen = []
        engine.population(settings, progress=lambda d, t: seen.append((d, t)))
        assert seen and seen[-1][0] == seen[-1][1]
