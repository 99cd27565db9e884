"""The chip job: every population shard and every estimator batch.

This module alone knows the job's format. A :class:`BatchRunner` splits
a tagged chip range into :func:`chip_shard` jobs, runs them on a
:class:`~repro.engine.executor.ShardedExecutor` (the engine's own, when
built by :class:`~repro.engine.core.Engine`) and joins the shards in
chip-id order. A job draws its chips through
:meth:`~repro.variation.columnar.ColumnarPopulationSampler.sample_range`,
whose ``die_z`` hook applies the estimators' die-slot transforms, and
evaluates both architectures with
:meth:`~repro.yieldmodel.analysis.YieldStudy.evaluate`.
:meth:`BatchRunner.reference` hands out the first chips of the
reference stream, from a live population's rows when the engine that
built the runner holds them.

Determinism contract: chip ``i`` of stream ``tag`` always draws from
``spawn(seed, f"{tag}-{i}")``, both transforms are elementwise, and the
executor returns results in job order, so the joined batch is
bit-identical at any worker count. The ``"chip"`` tag is the reference
population's stream, which makes pilot batches and adaptive populations
strict prefixes of the brute-force population.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.engine.executor import ShardedExecutor
from repro.obs.trace import span as trace_span
from repro.variation.columnar import ColumnarPopulationSampler
from repro.yieldmodel.analysis import YieldStudy
from repro.yieldmodel.estimators.sampling import ShardData, transform_die_slot

__all__ = ["BatchRunner", "chip_shard"]

#: Smallest shard worth shipping to a worker.
_MIN_SHARD = 16

#: One chip job, plain data the pool pickles: ``seed``, ``tag``,
#: ``start``, ``stop`` and the optional die-slot transforms ``shift``
#: (IS mean tilt, list of floats) and ``stratum`` (``[index, strata]``).
ChipJob = Dict[str, object]

#: Both architectures' circuit columns of one chip range.
ChipPair = Tuple[CircuitColumns, CircuitColumns]


def chip_shard(job: ChipJob) -> ShardData:
    """Draw, transform and evaluate one tagged chip range.

    Module-level, so the pool pickles it by qualified name; the serial
    path and the degraded-retry path call it in-process.
    """
    seed = int(job["seed"])
    tag = str(job["tag"])
    start = int(job["start"])
    stop = int(job["stop"])
    shift = job.get("shift")
    stratum = job.get("stratum")
    kept = []

    def rewrite(die_z: np.ndarray) -> None:
        transform_die_slot(die_z, shift, stratum)
        kept.append(die_z.copy())

    with trace_span(
        "worker:chip_shard", tag=tag, start=start, stop=stop, seed=seed
    ):
        # The study's own models, so a population's chips match the
        # live-chip key of the YieldStudy the engine files them under.
        study = YieldStudy(seed=seed)
        population = ColumnarPopulationSampler(study.sampler).sample_range(
            seed, start, stop, tag=tag, die_z=rewrite
        )
        regular, horizontal = study.evaluate(population)
        return ShardData(regular, horizontal, kept[0])


class BatchRunner:
    """Dispatches tagged chip ranges over an executor, shards merged in order.

    Parameters
    ----------
    executor:
        The sharded executor to dispatch on; its worker count sizes the
        shards. Default: a serial one.
    stats:
        Optional :class:`~repro.engine.stats.EngineStats` fed per-job
        compute time.
    progress:
        Optional ``progress(done, total)`` per completed shard of each
        dispatch (the serve layer's streaming hook).
    provenance:
        Optional ``provenance()`` returning extra attributes for each
        ``engine.dispatch`` span (the engine's provenance stamp when
        tracing is on).
    share:
        Optional ``share(study, compute)`` returning ``study``'s chips,
        from live rows or ``compute()`` (the engine's live-chip index);
        only :meth:`reference` asks it. Default: always compute.
    """

    def __init__(
        self,
        executor: Optional[ShardedExecutor] = None,
        stats=None,
        progress: Optional[Callable[[int, int], None]] = None,
        provenance: Optional[Callable[[], Dict[str, object]]] = None,
        share: Optional[
            Callable[[YieldStudy, Callable[[], ChipPair]], ChipPair]
        ] = None,
    ) -> None:
        self.executor = (
            executor if executor is not None else ShardedExecutor()
        )
        self.stats = stats
        self.progress = progress
        self.provenance = provenance if provenance is not None else dict
        self.share = share

    # ------------------------------------------------------------------
    def _jobs(
        self,
        seed: int,
        tag: str,
        start: int,
        stop: int,
        shift: Optional[Sequence[float]],
        stratum: Optional[Tuple[int, int]],
    ) -> List[ChipJob]:
        """Split chip ids ``[start, stop)`` into shard jobs (one job on
        the serial path); the layout only affects load balance."""
        base = {
            "seed": seed,
            "tag": tag,
            "shift": list(shift) if shift is not None else None,
            "stratum": list(stratum) if stratum is not None else None,
        }
        workers = self.executor.workers
        if workers <= 1:
            return [dict(base, start=start, stop=stop)]
        shard = max(_MIN_SHARD, math.ceil((stop - start) / (workers * 4)))
        return [
            dict(base, start=lo, stop=min(lo + shard, stop))
            for lo in range(start, stop, shard)
        ]

    def run(
        self,
        seed: int,
        tag: str,
        start: int,
        stop: int,
        shift: Optional[Sequence[float]] = None,
        stratum: Optional[Tuple[int, int]] = None,
    ) -> ShardData:
        """Draw and evaluate chips ``[start, stop)`` of stream ``tag``."""
        jobs = self._jobs(seed, tag, start, stop, shift, stratum)
        with trace_span(
            "engine.dispatch", tag=tag, chips=stop - start, jobs=len(jobs),
            **self.provenance(),
        ):
            shards = self.executor.run(
                chip_shard, jobs, self.stats, progress=self.progress
            )
        return ShardData.join(shards)

    def reference(self, seed: int, count: int) -> ChipPair:
        """Chips ``[0, count)`` of the reference ``chip`` stream, both
        architectures (a fixed population or estimate never reads the
        die-slot z): a live population's rows when ``share`` has them,
        otherwise dispatched."""

        def compute() -> ChipPair:
            return self.run(seed, "chip", 0, count)[:2]

        if self.share is None:
            return compute()
        return self.share(YieldStudy(seed=seed, count=count), compute)
