"""Single-flight request coalescing with progress fan-out.

The serve request mix is duplicate-heavy: scheme/degradation sweeps ask
for the same population or simulation from many clients at once. The
coalescer keys every compute request by its deterministic job identity
(the engine's store key) and keeps one :class:`Flight` per key: the
first request starts the computation; every later request **joins** the
existing flight and awaits the same result. The computation runs in its
own task, so a client that disconnects mid-wait — even the one that
started the flight — never aborts the job for the others. Progress
events the engine reports are broadcast to every subscriber of the
flight, so all coalesced clients see the same job advance.

This is the service's only single-flight table; the engine beneath it
is a synchronous library. The ``serve.flights`` gauge counts the
distinct jobs in flight.

Runs entirely on the server's event loop; engine calls happen on the
server's thread pool and re-enter the loop via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["Coalescer", "Flight"]


class Flight:
    """One in-flight job and its subscribers."""

    __slots__ = ("key", "done", "result", "error", "subscribers", "task")

    def __init__(self, key: str) -> None:
        self.key = key
        self.done = asyncio.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None
        #: Event queues of streaming subscribers (progress fan-out).
        self.subscribers: List[asyncio.Queue] = []
        self.task: Optional[asyncio.Task] = None

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self.subscribers.append(queue)
        return queue

    def publish(self, event: dict) -> None:
        for queue in self.subscribers:
            queue.put_nowait(event)


class Coalescer:
    """Deduplicates concurrent identical jobs onto single flights."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._flights: Dict[str, Flight] = {}
        self._count_flights()

    def flight_count(self) -> int:
        """How many distinct jobs are currently in flight."""
        return len(self._flights)

    def _count_flights(self) -> None:
        self.registry.gauge("serve.flights").set(len(self._flights))

    def get(self, key: str) -> Optional[Flight]:
        """The existing flight for ``key``, or ``None``."""
        return self._flights.get(key)

    async def drain(self) -> None:
        """Wait until every in-flight job has settled."""
        while self._flights:
            tasks = [
                f.task for f in self._flights.values() if f.task is not None
            ]
            if not tasks:
                break
            await asyncio.wait(tasks)

    def join(
        self, key: str, start: Callable[[Flight], Awaitable[object]]
    ) -> Flight:
        """The flight for ``key``, started now if there is none.

        ``start(flight)`` is awaited inside the flight's own task, only
        for the first caller per key; later callers join. Synchronous, so
        the flight is registered before the caller's next await: a
        request that creates or joins its flight in its handler is seen
        by every identical request after it.
        """
        flight = self._flights.get(key)
        if flight is None:
            flight = Flight(key)
            self._flights[key] = flight
            self._count_flights()
            self.registry.counter("serve.coalesce.leader").inc()
            flight.task = asyncio.get_running_loop().create_task(
                self._lead(flight, start)
            )
        else:
            self.registry.counter("serve.coalesce.joined").inc()
        return flight

    @staticmethod
    async def wait(flight: Flight) -> object:
        """The shared outcome of ``flight`` (its result, or its error)."""
        await flight.done.wait()
        if flight.error is not None:
            raise flight.error
        return flight.result

    async def run(
        self, key: str, start: Callable[[Flight], Awaitable[object]]
    ) -> object:
        """Await the result for ``key``, computing it at most once."""
        return await self.wait(self.join(key, start))

    async def _lead(self, flight: Flight, start) -> None:
        try:
            flight.result = await start(flight)
        except BaseException as exc:
            flight.error = exc
        finally:
            self._flights.pop(flight.key, None)
            self._count_flights()
            flight.publish({"event": "done", "ok": flight.error is None})
            flight.done.set()
