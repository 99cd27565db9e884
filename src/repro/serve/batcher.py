"""Micro-batching of compatible simulation jobs, by group commit.

Simulation requests that share the same settings identity (seed, trace
length, warmup) are *compatible*: the engine can run any number of them
through one :meth:`Engine.simulate_many` call — and so one pool
dispatch. The batcher keeps no timer. A request whose identity has no
dispatch running goes to the pool at the end of the event-loop turn it
arrived in, with every compatible request of that turn. Requests that
arrive while a dispatch of their identity runs wait, and all go as one
dispatch the moment it returns. A lone request waits for nothing, and a
burst still shares dispatches, batched behind the running one. The
server sends only cold simulations here.

Each dispatch runs ``simulate_many`` on the executor it is given (the
server's thread pool). The server's coalescer keeps one flight per job,
so a batch never holds the same simulation twice; if it did,
``simulate_many`` computes each distinct spec once.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["SimulationBatcher"]

#: (spec, future, progress callback or None) per waiting request.
_Entry = Tuple[object, asyncio.Future, Optional[Callable]]


class SimulationBatcher:
    """Groups simulation requests into single engine dispatches."""

    def __init__(
        self,
        engine,
        registry: Optional[MetricsRegistry] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.engine = engine
        #: Where ``simulate_many`` runs (``None``: the loop's default).
        self.executor = executor
        self.registry = (
            registry if registry is not None else engine.metrics
        )
        #: Settings key -> (settings, requests awaiting its next dispatch).
        self._waiting: Dict[str, Tuple[object, List[_Entry]]] = {}
        #: Settings keys with a dispatch scheduled or running.
        self._busy: Set[str] = set()
        self._pending = 0

    def pending(self) -> int:
        """Requests waiting for a dispatch or inside one."""
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
        future: asyncio.Future = loop.create_future()
        self._waiting.setdefault(key, (settings, []))[1].append(
            (spec, future, progress)
        )
        self._pending += 1
        self.registry.gauge("serve.batch.pending").set(self._pending)
        if key not in self._busy:
            self._busy.add(key)
            loop.call_soon(self._dispatch, key)
        try:
            return await future
        finally:
            self._pending -= 1
            self.registry.gauge("serve.batch.pending").set(self._pending)

    # ------------------------------------------------------------------
    def _dispatch(self, key: str) -> None:
        """Send ``key``'s waiting requests as one dispatch, or free ``key``
        when none wait."""
        batch = self._waiting.pop(key, None)
        if batch is None:
            self._busy.discard(key)
            return
        settings, entries = batch
        specs = [spec for spec, _, _ in entries]
        callbacks = [cb for _, _, cb in entries if cb is not None]

        def progress(done: int, total: int) -> None:
            for callback in callbacks:
                callback(done, total)

        loop = asyncio.get_running_loop()
        try:
            dispatch = loop.run_in_executor(
                self.executor,
                partial(
                    self.engine.simulate_many, settings, specs,
                    progress=progress if callbacks else None,
                ),
            )
        except RuntimeError as exc:
            # The pool refuses work once it is shut down (a drain that
            # timed out): these waiters get that error, not a hang.
            dispatch = loop.create_future()
            dispatch.set_exception(exc)
        else:
            self.registry.counter("serve.batch.dispatches").inc()
            self.registry.counter("serve.batch.jobs").inc(len(specs))
            self.registry.histogram(
                "serve.batch.size", bounds=(1, 2, 4, 8, 16, 32, 64, 128)
            ).observe(len(specs))
        dispatch.add_done_callback(partial(self._settle, key, entries))

    def _settle(self, key: str, entries: List[_Entry], dispatch) -> None:
        """Hand each waiter its result, or the dispatch's one error; then
        send the requests that queued behind it."""
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
        self._dispatch(key)
