"""Micro-batching of compatible simulation jobs.

Simulation requests that share the same settings identity (seed, trace
length, warmup) are *compatible*: the engine can run any number of them
through one :meth:`Engine.simulate_many` call — and so one pool
dispatch. The batcher holds each arriving request for a short window
(default 10 ms); everything compatible that lands inside the window
rides the same dispatch. Under a bursty sweep this turns N near-
simultaneous requests into one trip through the process pool; under
light load it costs at most the window, so the server sends only cold
simulations here.

Each dispatch runs ``simulate_many`` on the executor it is given (the
server's thread pool). The server's coalescer keeps one flight per job,
so a batch never holds the same simulation twice; if it did,
``simulate_many`` computes each distinct spec once.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["SimulationBatcher"]


class _Bucket:
    """Requests sharing one settings identity, awaiting the next flush."""

    __slots__ = ("settings", "entries", "handle")

    def __init__(self, settings) -> None:
        self.settings = settings
        #: (spec, future, progress callback or None) per request.
        self.entries: List[Tuple[object, asyncio.Future, Optional[Callable]]] = []
        self.handle: Optional[asyncio.TimerHandle] = None


class SimulationBatcher:
    """Groups simulation requests into single engine dispatches."""

    def __init__(
        self,
        engine,
        window: float = 0.01,
        max_batch: int = 64,
        registry: Optional[MetricsRegistry] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.engine = engine
        #: Where ``simulate_many`` runs (``None``: the loop's default).
        self.executor = executor
        self.window = window
        self.max_batch = max_batch
        self.registry = (
            registry if registry is not None else engine.metrics
        )
        self._buckets: Dict[str, _Bucket] = {}
        self._pending = 0

    def pending(self) -> int:
        """Requests currently waiting for a flush."""
        return self._pending

    @staticmethod
    def _settings_key(settings) -> str:
        return (
            f"{settings.seed}:{settings.trace_length}:{settings.warmup}"
        )

    async def simulate(
        self,
        settings,
        spec,
        progress: Optional[Callable[[int, int], None]] = None,
    ):
        """One simulation result, batched with compatible neighbours."""
        loop = asyncio.get_running_loop()
        key = self._settings_key(settings)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(settings)
        future: asyncio.Future = loop.create_future()
        bucket.entries.append((spec, future, progress))
        self._pending += 1
        self.registry.gauge("serve.batch.pending").set(self._pending)
        if len(bucket.entries) >= self.max_batch:
            self._flush(key)
        elif bucket.handle is None:
            bucket.handle = loop.call_later(self.window, self._flush, key)
        try:
            return await future
        finally:
            self._pending -= 1
            self.registry.gauge("serve.batch.pending").set(self._pending)

    async def flush_all(self) -> None:
        """Dispatch every waiting bucket now (drain path)."""
        for key in list(self._buckets):
            self._flush(key)
        # Waiters resolve when their dispatch returns; yield until none wait.
        while self._pending:
            await asyncio.sleep(0.005)

    # ------------------------------------------------------------------
    def _flush(self, key: str) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None or not bucket.entries:
            return
        if bucket.handle is not None:
            bucket.handle.cancel()
        specs = [spec for spec, _, _ in bucket.entries]
        callbacks = [cb for _, _, cb in bucket.entries if cb is not None]

        def progress(done: int, total: int) -> None:
            for callback in callbacks:
                callback(done, total)

        self.registry.counter("serve.batch.dispatches").inc()
        self.registry.counter("serve.batch.jobs").inc(len(specs))
        self.registry.histogram(
            "serve.batch.size", bounds=(1, 2, 4, 8, 16, 32, 64, 128)
        ).observe(len(specs))
        # How full the last dispatched batch was relative to max_batch —
        # a live proxy for whether the window is catching bursts.
        self.registry.gauge("serve.batch.fill_ratio").set(
            len(specs) / self.max_batch
        )
        dispatch = asyncio.get_running_loop().run_in_executor(
            self.executor,
            partial(
                self.engine.simulate_many, bucket.settings, specs,
                progress=progress if callbacks else None,
            ),
        )
        dispatch.add_done_callback(partial(self._resolve, bucket.entries))

    @staticmethod
    def _resolve(entries, dispatch: asyncio.Future) -> None:
        """Hand each waiter its result, or the dispatch's one error."""
        error = None if dispatch.cancelled() else dispatch.exception()
        for index, (_, waiter, _) in enumerate(entries):
            if waiter.done():
                continue
            if dispatch.cancelled():
                waiter.cancel()
            elif error is not None:
                waiter.set_exception(error)
            else:
                waiter.set_result(dispatch.result()[index])
