"""The execution engine: sharded compute behind a two-level cache.

Every expensive job the experiments need — evaluating a Monte Carlo chip
population or a yield estimate, running one pipeline simulation — funnels
through one :class:`Engine`, which satisfies it from (in order):

1. the **in-process memo** (:meth:`Engine.clear_memory` empties exactly
   this level),
2. the **persistent store** (`.repro_cache/` by default) keyed by the
   SHA-256 of the job's full identity, shared across processes and runs,
3. **computation**, sharded over a :class:`~repro.engine.executor.ShardedExecutor`
   when more than one worker is configured. Populations and estimates
   draw their chips through the one chip dispatcher,
   :class:`~repro.engine.chips.BatchRunner`; simulations run
   :func:`~repro.engine.workers.simulation_job`.

Configuration comes from the environment (overridable per instance):

* ``REPRO_WORKERS`` — worker processes (default 1, the serial path).
* ``REPRO_CACHE_DIR`` — store location (default ``.repro_cache``).
* ``REPRO_CACHE`` — set to ``0`` to disable the persistent store.
* ``REPRO_CACHE_MB`` — store size cap in MiB (default 512).
* ``REPRO_JOB_TIMEOUT`` — seconds per pool job before retry (default 900).
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.validation import env_int, env_positive_int, require_positive
from repro.core.errors import ConfigurationError
from repro.engine.chips import BatchRunner
from repro.engine.codec import (
    decode_estimate,
    decode_population,
    decode_simulation,
    encode_estimate,
    encode_population,
    encode_simulation,
    policy_identity,
    way_cycles_identity,
)
from repro.engine.executor import ShardedExecutor
from repro.engine.stats import EngineStats
from repro.engine.store import ResultStore
from repro.engine.workers import simulation_job
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import provenance_stamp
from repro.obs.trace import span as trace_span, tracing_enabled
from repro.yieldmodel.analysis import YieldStudy
from repro.yieldmodel.constraints import ConstraintPolicy, NOMINAL_POLICY
from repro.yieldmodel.estimators import adaptive_chips, run_estimate
from repro.yieldmodel.estimators.results import FIGURES
from repro.yieldmodel.estimators.spec import EstimatorSpec
from repro.yieldmodel.statistics import wilson_interval

__all__ = [
    "EngineConfig",
    "Engine",
    "SimulationSpec",
    "get_engine",
    "configure_engine",
]

#: One simulation request: (benchmark, way_cycles, uniform_latency).
SimulationSpec = Tuple[str, Optional[Tuple[Optional[int], ...]], Optional[int]]

@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs (see module docstring for the env mapping)."""

    workers: int = 1
    cache_dir: pathlib.Path = pathlib.Path(".repro_cache")
    persistent: bool = True
    max_cache_bytes: int = 512 * 1024 * 1024
    job_timeout: float = 900.0
    #: Default estimator spec for population/estimate jobs (``None`` =
    #: legacy fixed-N). Set by the CLI's ``--estimator``/``--ci-target``.
    estimator: Optional[EstimatorSpec] = None

    def __post_init__(self) -> None:
        require_positive(self.workers, "workers")
        require_positive(self.job_timeout, "job_timeout")

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """Build the default configuration from ``REPRO_*`` variables.

        Non-positive ``REPRO_WORKERS`` / ``REPRO_JOB_TIMEOUT`` values
        raise :class:`~repro.core.errors.ConfigurationError` naming the
        variable, instead of passing a nonsense count through to the
        pool.
        """
        return cls(
            workers=env_positive_int("REPRO_WORKERS", 1),
            cache_dir=pathlib.Path(
                os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
            ),
            persistent=os.environ.get("REPRO_CACHE", "1") != "0",
            max_cache_bytes=env_int("REPRO_CACHE_MB", 512) * 1024 * 1024,
            job_timeout=env_positive_int("REPRO_JOB_TIMEOUT", 900),
        )


class Engine:
    """Parallel, cache-backed executor for populations and simulations."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig.from_env()
        #: One registry per engine lifetime: EngineStats is a view over
        #: it, and the store feeds its I/O counters into the same place.
        self.metrics = MetricsRegistry()
        self.stats = EngineStats(
            workers=self.config.workers, registry=self.metrics
        )
        self.store: Optional[ResultStore] = (
            ResultStore(
                self.config.cache_dir,
                self.config.max_cache_bytes,
                metrics=self.metrics,
            )
            if self.config.persistent
            else None
        )
        self._executor = ShardedExecutor(
            workers=self.config.workers, timeout=self.config.job_timeout
        )
        self._memo: Dict[str, object] = {}
        self._provenance: Optional[Dict[str, object]] = None

    def provenance(self) -> Dict[str, object]:
        """Provenance stamp of this engine's code and configuration.

        Computed once per engine (the git subprocesses cost ~10ms) and
        attached to every dispatch trace span, so traced runs — and the
        bench records built on them — always say which commit and which
        engine configuration produced the numbers.
        """
        if self._provenance is None:
            self._provenance = provenance_stamp(
                workers=self.config.workers,
                config={
                    "workers": self.config.workers,
                    "persistent": self.config.persistent,
                    "job_timeout": self.config.job_timeout,
                },
            )
        return self._provenance

    def _dispatch_provenance(self) -> Dict[str, object]:
        """Provenance attrs for dispatch spans (empty when untraced).

        Guarded so untraced runs never pay the one-time git subprocess
        cost of building the stamp.
        """
        if not tracing_enabled():
            return {}
        stamp = self.provenance()
        return {
            "sha": stamp["git_sha"],
            "dirty": stamp["dirty"],
            "config": stamp["config_hash"],
        }

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-process memo; the persistent store is untouched."""
        self._memo.clear()

    def _lookup(self, kind: str, key: str, decode):
        """Memo then store; ``None`` when the job must be computed."""
        if key in self._memo:
            self.stats.jobs_cached_memory += 1
            return self._memo[key]
        if self.store is not None:
            payload = self.store.load(kind, key)
            if payload is not None:
                try:
                    result = decode(payload)
                except (ConfigurationError, KeyError, TypeError, ValueError):
                    return None  # stale/garbled payload: recompute
                self.stats.jobs_cached_disk += 1
                self._memo[key] = result
                return result
        return None

    def _settle(self, kind: str, key: str, result, encode) -> None:
        self._memo[key] = result
        if self.store is not None:
            self.store.save(kind, key, encode(result))

    def memoised(self, key: str) -> bool:
        """Is ``key`` in the in-process memo (answerable with no I/O)?"""
        return key in self._memo

    def has_cached(self, kind: str, key: str) -> bool:
        """Is ``(kind, key)`` answerable without computing?

        Checks the in-process memo, then bare file existence in the
        persistent store (no read, no decode) — cheap enough for a server
        to classify every incoming request as warm or cold before
        deciding whether it must pass admission control.
        """
        if key in self._memo:
            return True
        if self.store is not None:
            return self.store.path_for(kind, key).is_file()
        return False

    # ------------------------------------------------------------------
    # populations
    # ------------------------------------------------------------------
    @staticmethod
    def population_key(
        settings,
        policy: ConstraintPolicy = NOMINAL_POLICY,
        estimator: Optional[EstimatorSpec] = None,
    ) -> str:
        """Deterministic store key of one population job.

        An adaptive estimator spec joins the identity (its stopping rule
        decides how many chips the population holds); ``None`` and
        ``fixed`` keep the exact legacy key bytes, so existing warm
        stores stay valid.
        """
        identity = {
            "seed": settings.seed,
            "chips": settings.chips,
            "policy": policy_identity(policy),
        }
        if estimator is not None and estimator.kind == "adaptive":
            identity["estimator"] = estimator.identity()
        return ResultStore.key_for("population", identity)

    def population(
        self,
        settings,
        policy: ConstraintPolicy = NOMINAL_POLICY,
        progress: Optional[Callable[[int, int], None]] = None,
        estimator: Optional[EstimatorSpec] = None,
    ):
        """The evaluated Monte Carlo population for ``settings``/``policy``.

        ``progress`` (optional) is called as ``progress(done, total)``
        after each dispatched shard completes; cache hits, and
        populations whose chips a live population already holds (see
        :meth:`YieldStudy.live_chips`), dispatch nothing and never call
        it.
        ``estimator`` (default: the engine config's spec) selects how the
        population is sized: ``None``/``fixed`` evaluate exactly
        ``settings.chips`` chips; ``adaptive`` draws batches of the same
        chip stream and stops early once the Wilson CI half-width of
        both architectures' base yields reaches the spec's ``ci_target``.
        The weighted estimators cannot produce a chip population — use
        :meth:`estimate` for those.
        """
        spec = estimator if estimator is not None else self.config.estimator
        if spec is not None and spec.kind in ("stratified", "is"):
            raise ConfigurationError(
                f"the {spec.kind!r} estimator reweights chips and cannot "
                "materialise a population; use Engine.estimate() instead"
            )
        key = self.population_key(settings, policy, spec)
        adaptive = spec is not None and spec.kind == "adaptive"
        with trace_span(
            "engine.population", chips=settings.chips, seed=settings.seed,
            estimator=spec.kind if spec is not None else "fixed",
        ) as sp:
            result = self._lookup("population", key, decode_population)
            if result is not None:
                sp.set(source="cache")
            else:
                sp.set(source="computed")
                with self.stats.stage("population"):
                    if adaptive:
                        result = self._compute_population_adaptive(
                            settings, policy, spec, progress
                        )
                    else:
                        result = self._compute_population(
                            settings, policy, progress
                        )
                self._settle("population", key, result, encode_population)
        self._emit_yield_gauges(_population_figures(result))
        return result

    def _emit_yield_gauges(self, figures) -> None:
        """Publish each base-yield figure's estimate, Wilson CI
        half-width and sample count, and its effective sample size when
        it has one; the only writer of ``yield.*`` gauges.

        ``figures`` holds ``(figure, estimate, ci_halfwidth, samples,
        ess)`` rows, ``ess`` ``None`` for a population. The figures are
        the fixed set ``regular.base`` and ``horizontal.base``, so the
        series count is bounded by construction.
        """
        gauge = self.metrics.gauge
        for figure, estimate, halfwidth, samples, ess in figures:
            gauge(f"yield.estimate.{figure}").set(estimate)
            gauge(f"yield.ci_halfwidth.{figure}").set(halfwidth)
            gauge(f"yield.samples.{figure}").set(samples)
            if ess is not None:
                gauge(f"yield.ess.{figure}").set(ess)

    def _chip_dispatcher(self, progress: Optional[Callable[[int, int], None]]):
        """The one chip-range dispatcher, over this engine's executor:
        every population and every estimate draws its chips through it."""
        return BatchRunner(
            executor=self._executor,
            stats=self.stats,
            progress=progress,
            provenance=self._dispatch_provenance,
        )

    def _compute_population(
        self,
        settings,
        policy: ConstraintPolicy,
        progress: Optional[Callable[[int, int], None]] = None,
    ):
        study = YieldStudy(
            seed=settings.seed, count=settings.chips, policy=policy
        )
        # Chips a live population already holds are not dispatched; the
        # dispatched chips (regular, horizontal: a population never reads
        # the die-slot z) are offered on, as a study's own are.
        return study.assemble(*study.chips(
            lambda: self._chip_dispatcher(progress).run(
                settings.seed, "chip", 0, settings.chips
            )[:2]
        ))

    def _compute_population_adaptive(
        self,
        settings,
        policy: ConstraintPolicy,
        spec: EstimatorSpec,
        progress: Optional[Callable[[int, int], None]] = None,
    ):
        """Exactly the chips the adaptive estimator stops at, capped at
        ``settings.chips``, assembled as a population: the result equals
        a fixed population of the stopping size."""
        cap = min(spec.sample_cap(settings.chips), settings.chips)
        data, _ = adaptive_chips(
            self._chip_dispatcher(progress), spec, settings.seed, cap, policy
        )
        study = YieldStudy(seed=settings.seed, count=data.count, policy=policy)
        return study.assemble(data.regular, data.horizontal)

    # ------------------------------------------------------------------
    # yield estimates
    # ------------------------------------------------------------------
    @staticmethod
    def estimate_key(
        settings,
        policy: ConstraintPolicy = NOMINAL_POLICY,
        estimator: Optional[EstimatorSpec] = None,
    ) -> str:
        """Deterministic store key of one yield-estimate job.

        The estimator spec's :meth:`~EstimatorSpec.identity` is part of
        the identity — two estimates agree on an answer exactly when
        they agree on ``(seed, chips, policy, spec)``.
        """
        spec = estimator if estimator is not None else EstimatorSpec()
        identity = {
            "seed": settings.seed,
            "chips": settings.chips,
            "policy": policy_identity(policy),
            "estimator": spec.identity(),
        }
        return ResultStore.key_for("estimate", identity)

    def estimate(
        self,
        settings,
        policy: ConstraintPolicy = NOMINAL_POLICY,
        estimator: Optional[EstimatorSpec] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ):
        """The yield estimate for ``settings``/``policy`` under a spec.

        Runs the estimator the spec selects (default: the engine
        config's, else plain fixed-N) through the chip dispatcher,
        sharded over this engine's executor — bit-deterministic
        for ``(seed, chips, policy, spec)`` at any worker count. Results
        are cached like every other engine job.
        """
        spec = estimator if estimator is not None else self.config.estimator
        if spec is None:
            spec = EstimatorSpec()
        key = self.estimate_key(settings, policy, spec)
        with trace_span(
            "engine.estimate", kind=spec.kind, chips=settings.chips,
            seed=settings.seed, policy=policy.name,
        ) as sp:
            report = self._lookup("estimate", key, decode_estimate)
            if report is not None:
                sp.set(source="cache")
            else:
                sp.set(source="computed")
                with self.stats.stage("estimate"):
                    report = run_estimate(
                        self._chip_dispatcher(progress), spec, settings.seed,
                        settings.chips, policy,
                    )
                self._settle("estimate", key, report, encode_estimate)
        self._emit_yield_gauges(
            (e.figure, e.estimate, e.ci_halfwidth, e.samples, e.ess)
            for e in report.estimates
        )
        return report

    # ------------------------------------------------------------------
    # simulations
    # ------------------------------------------------------------------
    @staticmethod
    def _simulation_identity(settings, spec: SimulationSpec) -> Dict[str, object]:
        benchmark, way_cycles, uniform_latency = spec
        return {
            "seed": settings.seed,
            "trace_length": settings.trace_length,
            "warmup": settings.warmup,
            "benchmark": benchmark,
            "way_cycles": way_cycles_identity(way_cycles),
            "uniform_latency": uniform_latency,
        }

    def simulate(
        self,
        settings,
        benchmark: str,
        way_cycles: Optional[Tuple[Optional[int], ...]] = None,
        uniform_latency: Optional[int] = None,
    ):
        """One benchmark under one L1D configuration (cached)."""
        return self.simulate_many(
            settings, [(benchmark, way_cycles, uniform_latency)]
        )[0]

    @classmethod
    def simulation_key(cls, settings, spec: SimulationSpec) -> str:
        """Deterministic store key of one simulation job."""
        return ResultStore.key_for(
            "simulation", cls._simulation_identity(settings, spec)
        )

    def simulate_many(
        self,
        settings,
        specs: List[SimulationSpec],
        progress: Optional[Callable[[int, int], None]] = None,
    ):
        """Run many simulations, dispatching cache misses in parallel.

        Returns results in ``specs`` order. Experiments that sweep
        benchmark × configuration call this once up front so the pool
        sees every independent job at the same time. ``progress`` (when
        given) is called as ``progress(done, total)`` per computed job.
        """
        identities = [self._simulation_identity(settings, s) for s in specs]
        keys = [ResultStore.key_for("simulation", i) for i in identities]
        results: List[object] = [None] * len(specs)
        misses: List[int] = []
        seen: Dict[str, int] = {}
        with trace_span("engine.simulate_many", specs=len(specs)) as sp:
            for index, key in enumerate(keys):
                cached = self._lookup("simulation", key, decode_simulation)
                if cached is not None:
                    results[index] = cached
                elif key in seen:
                    continue  # duplicate spec within this batch
                else:
                    seen[key] = index
                    misses.append(index)
            sp.set(misses=len(misses))
            if misses:
                # Ship compiled-trace cache keys, not traces: each worker
                # resolves the key against its process-level compiled
                # cache (repro.workloads.compiled), so a (benchmark,
                # seed) stream is packed once per worker, not per job.
                # The key is informational — the store identity (and so
                # every cache key) is unchanged.
                from repro.workloads.compiled import trace_key

                jobs = []
                for i in misses:
                    identity = identities[i]
                    job = dict(identity)
                    job["ctrace"] = trace_key(
                        identity["benchmark"],
                        identity["seed"],
                        identity["warmup"] + identity["trace_length"],
                    )
                    jobs.append(job)
                with self.stats.stage("simulation"), trace_span(
                    "engine.dispatch", kind="simulation", jobs=len(misses),
                    **self._dispatch_provenance(),
                ):
                    computed = self._executor.run(
                        simulation_job,
                        jobs,
                        self.stats,
                        progress=progress,
                    )
                for index, result in zip(misses, computed):
                    self._settle(
                        "simulation", keys[index], result, encode_simulation
                    )
        for index, key in enumerate(keys):
            if results[index] is None:
                results[index] = self._memo[key]
        return results


def _population_figures(result):
    """A population's base-yield rows for :meth:`Engine._emit_yield_gauges`:
    ships over chips per architecture, with the Wilson interval's
    half-width and no effective sample size."""
    for figure, horizontal in zip(FIGURES, (False, True)):
        passes = result.chips(horizontal).passes
        total = passes.shape[0]
        if total > 0:
            ships = int(np.count_nonzero(passes))
            low, high = wilson_interval(ships, total)
            yield figure, ships / total, (high - low) / 2.0, total, None


# ----------------------------------------------------------------------
# the process-wide engine
# ----------------------------------------------------------------------
# Everything in the program is handed its engine. This one is kept for the
# benchmark harness alone: perfbench/passes.py and perfbench/serve_mix.py
# build it with configure_engine(), and passes.py then calls the
# two-argument run_experiment(), whose engine=None default reads it. Both
# go once the harness builds and passes its own engine.
_ENGINE: Optional[Engine] = None


def get_engine() -> Engine:
    """The process-wide engine (created lazily from the environment)."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = Engine()
    return _ENGINE


def configure_engine(**overrides) -> Engine:
    """Replace the process-wide engine with selected overrides.

    Accepts any :class:`EngineConfig` field (``workers``, ``cache_dir``,
    ``persistent``, ``max_cache_bytes``, ``job_timeout``, ``estimator``);
    unspecified fields come from the environment.
    """
    global _ENGINE
    config = EngineConfig.from_env()
    if overrides:
        if "cache_dir" in overrides:
            overrides["cache_dir"] = pathlib.Path(overrides["cache_dir"])
        config = replace(config, **overrides)
    _ENGINE = Engine(config)
    return _ENGINE
