"""Chip-range dispatch: the one path from a chip range to the worker pool.

A :class:`BatchRunner` turns one tagged chip range into
:func:`~repro.engine.workers.chip_shard` jobs, ships them through a
:class:`~repro.engine.executor.ShardedExecutor` (the engine's own, when
built by :class:`~repro.engine.core.Engine`), and merges the shards back
in chip-id order. Populations (tag ``"chip"``) and every estimator batch
come through here. Because every chip is keyed by ``(seed, tag,
chip_id)`` alone and the executor returns results in job order, the
merged batch is bit-identical at any worker count — nothing above this
layer sees how the work was split.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.engine.executor import ShardedExecutor
from repro.obs.trace import span as trace_span

__all__ = ["BatchRunner", "ShardData"]

#: Smallest shard worth shipping to a worker.
_MIN_SHARD = 16


class ShardData(NamedTuple):
    """One merged batch: circuit columns per architecture + die-slot z."""

    regular: CircuitColumns
    horizontal: CircuitColumns
    die_z: np.ndarray  # (chips, 5) float64, the die-slot normals

    @classmethod
    def join(cls, parts: Sequence["ShardData"]) -> "ShardData":
        """Batches (or shards) in chip order as one batch."""
        return cls(
            CircuitColumns.concatenate([part[0] for part in parts]),
            CircuitColumns.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
        )

    @property
    def count(self) -> int:
        return len(self.regular)


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
    """

    def __init__(
        self,
        executor: Optional[ShardedExecutor] = None,
        stats=None,
        progress: Optional[Callable[[int, int], None]] = None,
        provenance: Optional[Callable[[], Dict[str, object]]] = None,
    ) -> None:
        self.executor = (
            executor if executor is not None else ShardedExecutor()
        )
        self.stats = stats
        self.progress = progress
        self.provenance = provenance if provenance is not None else dict

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
        # Imported here, not at module top: this module is imported by
        # repro.engine.core, and repro.engine.workers imports back into
        # the estimators package — the lazy import keeps the package
        # import graph acyclic.
        from repro.engine.workers import chip_shard

        jobs = self._jobs(seed, tag, start, stop, shift, stratum)
        with trace_span(
            "engine.dispatch", tag=tag, chips=stop - start, jobs=len(jobs),
            **self.provenance(),
        ):
            shards = self.executor.run(
                chip_shard, jobs, self.stats, progress=self.progress
            )
        return ShardData.join(shards)
