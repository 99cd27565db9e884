"""Execution statistics for the parallel engine.

:class:`EngineStats` reports where every logical job (a population shard
or one pipeline simulation) was satisfied — computed, replayed from the
in-process memo, or loaded from the persistent store — and how a run
spent its wall time, for ``repro run --stats``.

Since the observability layer landed, the class is a thin *view* over a
:class:`~repro.obs.metrics.MetricsRegistry`: every counter attribute
(``jobs_run``, ``busy_seconds``, ...) reads and writes a registry
instrument, so the engine's executor can keep saying
``stats.jobs_run += 1`` while dashboards and tests read the same numbers
through ``engine.metrics.snapshot()``. Stage timings land in per-stage
latency histograms (``stage.<name>``) and, when tracing is enabled, each
stage emits a ``stage:<name>`` trace span around exactly the region it
books — so ``repro trace summary`` and ``--stats`` agree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as _trace_span

__all__ = ["EngineStats"]

#: Attribute name -> registry counter name.
_COUNTERS = {
    "jobs_run": "engine.jobs.run",
    "jobs_cached_memory": "engine.jobs.cached_memory",
    "jobs_cached_disk": "engine.jobs.cached_disk",
    "jobs_retried": "engine.jobs.retried",
    "jobs_degraded": "engine.jobs.degraded",
    "busy_seconds": "engine.busy_seconds",
    "pool_seconds": "engine.pool_seconds",
}

#: Prefix under which stage wall time is recorded as histograms.
_STAGE_PREFIX = "stage."


def _int_counter(metric: str):
    def getter(self: "EngineStats") -> int:
        return int(self.registry.counter(metric).value)

    def setter(self: "EngineStats", value: float) -> None:
        self.registry.counter(metric).value = float(value)

    return property(getter, setter)


def _float_counter(metric: str):
    def getter(self: "EngineStats") -> float:
        return self.registry.counter(metric).value

    def setter(self: "EngineStats", value: float) -> None:
        self.registry.counter(metric).value = float(value)

    return property(getter, setter)


class EngineStats:
    """Counters and timings for one engine lifetime (a registry view).

    Parameters
    ----------
    workers:
        Configured worker-process count (kept on the view, not in the
        registry — it is configuration, not a measurement).
    registry:
        Backing registry; a private one is created when not given, so a
        standalone ``EngineStats()`` behaves exactly like the plain
        dataclass it used to be.

    Attributes (all backed by registry counters)
    --------------------------------------------
    jobs_run:
        Jobs actually computed (in a worker or in-process).
    jobs_cached_memory, jobs_cached_disk:
        Jobs satisfied by the in-process memo / the persistent store.
    jobs_retried:
        Pool jobs re-submitted after a failure or timeout.
    jobs_degraded:
        Jobs that fell back to in-process execution after the pool
        failed them twice.
    busy_seconds:
        Summed per-job compute wall time (measured inside the worker).
    pool_seconds:
        Wall time spent inside parallel dispatch sections.
    """

    def __init__(
        self, workers: int = 1, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.workers = workers
        self.registry = registry if registry is not None else MetricsRegistry()

    jobs_run = _int_counter(_COUNTERS["jobs_run"])
    jobs_cached_memory = _int_counter(_COUNTERS["jobs_cached_memory"])
    jobs_cached_disk = _int_counter(_COUNTERS["jobs_cached_disk"])
    jobs_retried = _int_counter(_COUNTERS["jobs_retried"])
    jobs_degraded = _int_counter(_COUNTERS["jobs_degraded"])
    busy_seconds = _float_counter(_COUNTERS["busy_seconds"])
    pool_seconds = _float_counter(_COUNTERS["pool_seconds"])

    # ------------------------------------------------------------------
    # derived ratios (all guarded against empty runs)
    # ------------------------------------------------------------------
    @property
    def jobs_cached(self) -> int:
        """Jobs satisfied without computing (memo + store)."""
        return self.jobs_cached_memory + self.jobs_cached_disk

    @property
    def jobs_total(self) -> int:
        """All jobs the engine was asked for."""
        return self.jobs_run + self.jobs_cached

    @property
    def hit_ratio(self) -> float:
        """Fraction of jobs served from a cache (0.0 when no jobs ran)."""
        total = self.jobs_total
        if total <= 0:
            return 0.0
        return self.jobs_cached / total

    @property
    def utilization(self) -> float:
        """Fraction of the pool's capacity kept busy during dispatch.

        0.0 when nothing was dispatched (no division by zero on empty
        runs or pathological worker counts).
        """
        if self.pool_seconds <= 0.0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.pool_seconds * self.workers))

    # ------------------------------------------------------------------
    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Wall time per named stage (a view over the stage histograms)."""
        return {
            name[len(_STAGE_PREFIX):]: hist.total
            for name, hist in self.registry.histograms().items()
            if name.startswith(_STAGE_PREFIX) and hist.count
        }

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of a ``with`` block under ``name``.

        Feeds the per-stage latency histogram and, when tracing is on,
        emits a ``stage:<name>`` span covering the same region.
        """
        with _trace_span(f"stage:{name}"):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.registry.histogram(_STAGE_PREFIX + name).observe(elapsed)

    def summary(self) -> str:
        """Human-readable multi-line report (``repro run --stats``)."""
        lines = [
            "== engine statistics ==",
            f"workers            {self.workers}",
            f"jobs run           {self.jobs_run}",
            f"jobs cached (memo) {self.jobs_cached_memory}",
            f"jobs cached (disk) {self.jobs_cached_disk}",
            f"jobs retried       {self.jobs_retried}",
            f"jobs degraded      {self.jobs_degraded}",
            f"cache hit ratio    {self.hit_ratio * 100:.1f}%",
            f"busy seconds       {self.busy_seconds:.3f}",
            f"pool utilization   {self.utilization * 100:.1f}%",
        ]
        stage_seconds = self.stage_seconds
        for name in sorted(stage_seconds):
            lines.append(f"stage {name:<24} {stage_seconds[name]:.3f}s")
        return "\n".join(lines)
