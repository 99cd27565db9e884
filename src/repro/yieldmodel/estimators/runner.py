"""Batch dispatch: the bridge between estimators and the worker pool.

A :class:`BatchRunner` turns one tagged chip range into shard jobs,
ships them through a :class:`~repro.engine.executor.ShardedExecutor`
(the engine's own, when driven from :meth:`Engine.estimate`), and merges
the shards back in chip-id order. Because every chip is keyed by
``(seed, tag, chip_id)`` alone and the executor returns results in job
order, the merged batch is bit-identical at any worker count — the
estimators above this layer never see how the work was split.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.engine.executor import ShardedExecutor
from repro.obs.trace import span as trace_span

__all__ = ["BatchRunner", "ShardData"]

#: Smallest shard worth shipping to a worker (matches engine dispatch).
_MIN_SHARD = 16


class ShardData(NamedTuple):
    """One merged batch: circuit columns per architecture + raw die z."""

    regular: CircuitColumns
    horizontal: CircuitColumns
    die_z: List[Tuple[float, ...]]

    @classmethod
    def join(cls, parts: Sequence["ShardData"]) -> "ShardData":
        """Batches (or shards) in chip order as one batch."""
        return cls(
            CircuitColumns.concatenate([part[0] for part in parts]),
            CircuitColumns.concatenate([part[1] for part in parts]),
            [z for part in parts for z in part[2]],
        )

    @property
    def count(self) -> int:
        return len(self.regular)


class BatchRunner:
    """Dispatches tagged chip ranges over an executor, shards merged in order.

    Parameters
    ----------
    executor:
        The sharded executor to dispatch on (``None`` builds a serial one).
    workers:
        Worker count used to size shards (mirrors engine population jobs).
    stats:
        Optional :class:`~repro.engine.stats.EngineStats` fed per-job
        compute time.
    progress:
        Optional ``progress(done, total)`` per completed shard of each
        dispatch (the serve layer's streaming hook).
    """

    def __init__(
        self,
        executor: Optional[ShardedExecutor] = None,
        workers: int = 1,
        stats=None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.executor = (
            executor if executor is not None else ShardedExecutor(workers=1)
        )
        self.workers = max(1, int(workers))
        self.stats = stats
        self.progress = progress

    # ------------------------------------------------------------------
    def _jobs(
        self,
        seed: int,
        tag: str,
        start: int,
        stop: int,
        shift: Optional[Sequence[float]],
        stratum: Optional[Tuple[int, int]],
    ) -> List[dict]:
        base = {
            "seed": seed,
            "tag": tag,
            "shift": list(shift) if shift is not None else None,
            "stratum": list(stratum) if stratum is not None else None,
        }
        if self.workers <= 1:
            return [dict(base, start=start, stop=stop)]
        shard = max(
            _MIN_SHARD, math.ceil((stop - start) / (self.workers * 4))
        )
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
        # Imported here, not at module top: this module is imported by
        # repro.engine.core, and repro.engine.workers imports back into
        # the estimators package — the lazy import keeps the package
        # import graph acyclic.
        from repro.engine.workers import estimate_shard

        if stop <= start:
            empty = CircuitColumns(
                (), np.zeros((0, 0, 0)), np.zeros((0, 0, 0)), np.zeros((0, 0))
            )
            return ShardData(empty, empty, [])
        jobs = self._jobs(seed, tag, start, stop, shift, stratum)
        with trace_span(
            "estimator.batch", tag=tag, chips=stop - start, jobs=len(jobs)
        ):
            shards = self.executor.run(
                estimate_shard, jobs, self.stats, progress=self.progress
            )
        return ShardData.join(shards)
