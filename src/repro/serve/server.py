"""The yield-analysis service: a stdlib asyncio HTTP/1.1 server.

``repro serve`` turns the engine into a long-running scheduler behind an
HTTP/JSON API. The request path composes the rest of this package:

1. **Routing** (:mod:`repro.serve.router`) — exact method/path table.
2. **Warm classification** — every query is keyed by its deterministic
   job identity; :meth:`Engine.has_cached` decides (memo check + store
   file existence, no decode) whether the request is answerable without
   compute. Warm requests bypass admission entirely.
3. **Admission** (:mod:`repro.serve.admission`) — cold requests acquire
   a compute slot or are told 429/503; per-client round-robin keeps one
   flooding client from starving the rest.
4. **Coalescing** (:mod:`repro.serve.coalescer`) — concurrent identical
   queries share one flight and one computation. Inside a flight, a
   result already in the engine's memo is answered on the loop; every
   other engine call (store reads, computation, whole experiments) runs
   on the server's one thread pool.
5. **Batching** (:mod:`repro.serve.batcher`) — cold simulations of one
   settings identity share a pool dispatch, sent at the end of the loop
   turn they arrived in or as soon as the running one returns.
6. **Observability** — every request runs inside a ``serve.request``
   trace span (the existing JSONL format) carrying a request id that is
   echoed back as ``X-Repro-Request-Id``, recorded into the rolling
   window rollup (:mod:`repro.obs.rollup`), retained in a bounded span
   ring (``GET /debug/traces``) and optionally appended to a JSONL
   request log. ``/metrics`` is content-negotiated: JSON for
   ``Accept: application/json`` (the engine registry's snapshot + the
   rollup), Prometheus text exposition otherwise; ``/healthz`` reports
   engine/store/cache/admission state; ``/dashboard`` serves a
   self-contained live HTML dashboard. Both read the process's RSS and
   CPU time, uptime and connection count at the moment they answer.

Progress streams as chunked ``application/x-ndjson``: one JSON object
per line (``accepted``, ``progress``, ``result`` / ``error`` events).

Graceful shutdown: SIGTERM/SIGINT stops the listener, refuses new work
with 503, lets every in-flight flight settle (bounded by
``drain_timeout``), then exits — a supervisor can roll the service
without dropping accepted jobs.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import AsyncIterator, Dict, Optional, Tuple

from repro.engine.store import canonical_json
from repro.obs.promtext import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.obs.promtext import render_exposition
from repro.obs.reqlog import RequestLog, SpanRing, new_request_id
from repro.obs.resources import read_resources
from repro.obs.rollup import RequestRollup
from repro.obs.trace import span as trace_span
from repro.serve.admission import AdmissionController, RejectedError
from repro.serve.batcher import SimulationBatcher
from repro.serve.coalescer import Coalescer, Flight
from repro.serve.protocol import (
    ProtocolError,
    estimate_payload,
    experiment_payload,
    parse_estimate,
    parse_experiment,
    parse_population,
    parse_simulation,
    population_payload,
    simulation_payload,
)
from repro.serve.router import RouteError, Router

__all__ = ["ServeConfig", "Request", "Response", "YieldServer",
           "ServerThread", "run_server"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of the service (see the CLI's ``repro serve``)."""

    host: str = "127.0.0.1"
    port: int = 8787
    max_active: int = 8
    max_queued: int = 64
    max_per_client: int = 16
    drain_timeout: float = 30.0
    body_limit: int = 1 << 20
    keepalive_timeout: float = 75.0
    window_seconds: float = 10.0
    window_count: int = 6
    request_log: Optional[str] = None
    dashboard: bool = True
    trace_ring: int = 256


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body", "client",
                 "request_id", "disposition")

    def __init__(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        client: str,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.client = client
        self.request_id = new_request_id()
        # Filled in along the compute path (warm/coalesced/batched) and
        # consumed by the rollup middleware when the response settles.
        self.disposition: Dict[str, bool] = {}

    def json(self) -> object:
        """The JSON body (an empty body parses as ``{}``)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError:
            raise ProtocolError("request body is not valid JSON") from None

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class Response:
    """A response: JSON payload, raw body, or a stream of NDJSON events."""

    __slots__ = ("status", "payload", "stream", "body", "content_type",
                 "headers", "request_id")

    def __init__(
        self,
        status: int = 200,
        payload: Optional[dict] = None,
        stream: Optional[AsyncIterator[dict]] = None,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.status = status
        self.payload = payload
        self.stream = stream
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}
        self.request_id: Optional[str] = None

    @staticmethod
    def error(
        status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> "Response":
        return Response(
            status, {"error": message, "status": status}, headers=headers
        )

    @staticmethod
    def text(
        status: int, body: str, content_type: str = "text/plain; charset=utf-8"
    ) -> "Response":
        return Response(
            status, body=body.encode("utf-8"), content_type=content_type
        )


class _BadRequest(Exception):
    """Malformed HTTP framing (connection-fatal)."""


#: Header lines one request may carry; more is refused with 400.
_MAX_HEADER_LINES = 100

#: Open connections the server holds; one accepted past this gets a 503
#: and is closed, so idle keep-alives cannot use up file descriptors
#: (512 stays under the common soft limit of 1024).
_MAX_CONNECTIONS = 512


class YieldServer:
    """Long-running yield-analysis service over one :class:`Engine`."""

    def __init__(self, engine, config: Optional[ServeConfig] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.metrics = engine.metrics
        self.admission = AdmissionController(
            max_active=self.config.max_active,
            max_queued=self.config.max_queued,
            max_per_client=self.config.max_per_client,
            registry=self.metrics,
        )
        self.coalescer = Coalescer(registry=self.metrics)
        #: Runs every engine call that leaves the loop; shut down after
        #: the drain.
        self.pool = ThreadPoolExecutor(
            max_workers=max(4, engine.config.workers),
            thread_name_prefix="repro-serve-pool",
        )
        self.batcher = SimulationBatcher(
            engine, registry=self.metrics, executor=self.pool
        )
        self.rollup = RequestRollup(
            window_seconds=self.config.window_seconds,
            windows=self.config.window_count,
        )
        self.span_ring = SpanRing(capacity=self.config.trace_ring)
        self.request_log: Optional[RequestLog] = (
            RequestLog(self.config.request_log)
            if self.config.request_log else None
        )
        self.router = Router()
        self.router.add("GET", "/healthz", _handle_healthz)
        self.router.add("GET", "/metrics", _handle_metrics)
        self.router.add("GET", "/debug/traces", _handle_debug_traces)
        if self.config.dashboard:
            self.router.add("GET", "/dashboard", _handle_dashboard)
        self.router.add("POST", "/v1/population", _handle_population)
        self.router.add("POST", "/v1/estimate", _handle_estimate)
        self.router.add("POST", "/v1/simulate", _handle_simulate)
        self.router.add("POST", "/v1/experiment", _handle_experiment)
        self.draining = False
        self.started = 0.0
        self.host = self.config.host
        self.port = self.config.port
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed = asyncio.Event()
        self._connections: set = set()
        self._shutdown_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        name = self._server.sockets[0].getsockname()
        self.host, self.port = name[0], name[1]
        self.started = time.time()
        return self.host, self.port

    def metrics_snapshot(self) -> dict:
        """The engine registry's snapshot, scrape-time gauges written first.

        The ``proc.*`` readings, uptime, draining flag and open-connection
        count are values of this moment: both ``/metrics`` forms and
        ``/dashboard`` write them into the registry just before reading
        it, so each shows the same gauges.
        """
        gauge = self.metrics.gauge
        for name, value in read_resources().items():
            gauge(f"proc.{name}").set(value)
        gauge("serve.uptime_seconds").set(time.time() - self.started)
        gauge("serve.draining").set(1.0 if self.draining else 0.0)
        gauge("serve.connections").set(len(self._connections))
        return self.metrics.snapshot()

    async def wait_closed(self) -> None:
        """Block until a shutdown completes."""
        await self._closed.wait()

    def request_shutdown(self) -> None:
        """Idempotently begin a graceful drain (signal-handler safe)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown()
            )

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight jobs, then release the loop."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._drain(), timeout=self.config.drain_timeout
            )
        except asyncio.TimeoutError:
            self.metrics.counter("serve.drain.timeout").inc()
        # Whatever connections remain are idle keep-alives: cut them.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        # Stop the pool after the drain but before releasing the loop,
        # so no thread outlives the server.
        self.pool.shutdown(wait=True, cancel_futures=True)
        if self.request_log is not None:
            self.request_log.close()
        self._closed.set()

    async def _drain(self) -> None:
        """Wait out accepted work: admission queues, batches, flights."""
        while (
            self.admission.active
            or self.admission.queued
            or self.coalescer.flight_count()
            or self.batcher.pending()
        ):
            await self.coalescer.drain()
            await asyncio.sleep(0.02)
        # Let drained handlers write their final responses out.
        await asyncio.sleep(0.05)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            if len(self._connections) > _MAX_CONNECTIONS:
                self.metrics.counter("serve.connections.refused").inc()
                await self._write_json(
                    writer,
                    Response.error(503, "too many open connections"),
                    keep_alive=False,
                )
            else:
                await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, TimeoutError, OSError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else str(peer)
        while True:
            try:
                request = await self._read_request(reader, peer_host)
            except _BadRequest as exc:
                await self._write_json(
                    writer, Response.error(400, str(exc)), keep_alive=False
                )
                return
            except asyncio.TimeoutError:
                return
            if request is None:
                return
            response = await self._dispatch(request)
            keep_alive = (
                request.keep_alive
                and not self.draining
                and response.stream is None
            )
            if response.stream is not None:
                await self._write_stream(writer, response)
                return
            await self._write_json(writer, response, keep_alive=keep_alive)
            if not keep_alive:
                return

    async def _read_request(self, reader, peer_host: str) -> Optional[Request]:
        """Read one request, request line to body, within
        ``keepalive_timeout``; a client that trickles or stalls any part
        of it loses the connection (``asyncio.TimeoutError``)."""
        return await asyncio.wait_for(
            self._read_request_parts(reader, peer_host),
            timeout=self.config.keepalive_timeout,
        )

    async def _read_request_parts(
        self, reader, peer_host: str
    ) -> Optional[Request]:
        try:
            line = await reader.readline()
        except asyncio.IncompleteReadError:
            return None
        except ValueError:  # request line beyond the stream limit
            raise _BadRequest("request line too long") from None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _BadRequest("malformed request line")
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        lines = 0
        while True:
            try:
                raw = await reader.readline()
            except asyncio.IncompleteReadError:
                raise _BadRequest("truncated headers") from None
            except ValueError:
                raise _BadRequest("header line too long") from None
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise _BadRequest("truncated headers")
            lines += 1
            if lines > _MAX_HEADER_LINES:
                raise _BadRequest(
                    f"more than {_MAX_HEADER_LINES} header lines"
                )
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {raw!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("malformed Content-Length") from None
        if length < 0 or length > self.config.body_limit:
            raise _BadRequest(
                f"body too large ({length} > {self.config.body_limit} bytes)"
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _BadRequest("truncated body") from None
        path = target.partition("?")[0]
        client = headers.get("x-repro-client", peer_host)
        return Request(method, path, headers, body, client)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> Response:
        self.metrics.counter("serve.requests").inc()
        start = time.perf_counter()
        wall = time.time()
        with trace_span(
            "serve.request",
            method=request.method,
            path=request.path,
            client=request.client,
            request_id=request.request_id,
        ) as sp:
            response = await self._route(request)
            sp.set(status=response.status)
        elapsed = time.perf_counter() - start
        self.metrics.histogram("serve.request_seconds").observe(elapsed)
        self.metrics.counter(f"serve.responses.{response.status}").inc()
        self._observe(request, response, elapsed, wall)
        response.request_id = request.request_id
        return response

    def _observe(
        self, request: Request, response: Response,
        elapsed: float, wall: float,
    ) -> None:
        """Rollup + span ring + request log for one finished request.

        Unknown paths collapse into one ``<other>`` endpoint so a port
        scanner cannot mint unbounded rollup series.
        """
        endpoint = (
            request.path if self.router.known(request.path) else "<other>"
        )
        disposition = request.disposition
        self.rollup.record(
            endpoint,
            response.status,
            elapsed,
            warm=disposition.get("warm", False),
            coalesced=disposition.get("coalesced", False),
            batched=disposition.get("batched", False),
        )
        record = {
            "name": "serve.request",
            "request_id": request.request_id,
            "ts": wall,
            "dur": elapsed,
            "attrs": {
                "method": request.method,
                "path": request.path,
                "client": request.client,
                "status": response.status,
                **{flag: True for flag, on in disposition.items() if on},
            },
        }
        self.span_ring.append(record)
        if self.request_log is not None:
            self.request_log.record({
                "request_id": request.request_id,
                "ts": round(wall, 6),
                "client": request.client,
                "method": request.method,
                "path": request.path,
                "status": response.status,
                "seconds": round(elapsed, 6),
                "warm": disposition.get("warm", False),
                "coalesced": disposition.get("coalesced", False),
                "batched": disposition.get("batched", False),
            })

    async def _route(self, request: Request) -> Response:
        if self.draining and request.path not in (
            "/healthz", "/metrics", "/debug/traces", "/dashboard"
        ):
            return Response.error(503, "draining")
        try:
            handler = self.router.resolve(request.method, request.path)
        except RouteError as exc:
            headers = (
                {"Allow": ", ".join(exc.allow)} if exc.allow else None
            )
            return Response.error(exc.status, exc.reason, headers=headers)
        try:
            return await handler(self, request)
        except ProtocolError as exc:
            return Response.error(400, str(exc))
        except RejectedError as exc:
            return Response.error(exc.status, exc.reason)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.metrics.counter("serve.errors").inc()
            return Response.error(500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------
    async def _write_json(
        self, writer, response: Response, keep_alive: bool
    ) -> None:
        if response.body is not None:
            body = response.body
            content_type = response.content_type
        else:
            body = canonical_json(response.payload).encode("utf-8")
            content_type = "application/json"
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in response.headers.items()
        )
        if response.request_id:
            extra += f"X-Repro-Request-Id: {response.request_id}\r\n"
        head = (
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _write_stream(self, writer, response: Response) -> None:
        head = (
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'Unknown')}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        try:
            async for event in response.stream:
                data = (canonical_json(event) + "\n").encode("utf-8")
                writer.write(
                    f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"
                )
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            # Close the generator now, not whenever the GC gets to it.
            await response.stream.aclose()

    # ------------------------------------------------------------------
    # shared compute plumbing (used by the endpoint handlers)
    # ------------------------------------------------------------------
    async def _admitted(self, key: str, kind: str, request: Request) -> bool:
        """Acquire a compute slot when this request needs one.

        Warm queries (cache-answerable) and joiners of an existing
        flight don't add compute, so they bypass admission; returns
        whether a slot was actually acquired (:meth:`_run_flight` hands
        it back when the flight settles). Annotates the request's
        disposition for the rollup middleware.
        """
        if self.coalescer.get(key) is not None:
            request.disposition["coalesced"] = True
            return False
        if self.engine.has_cached(kind, key):
            self.metrics.counter("serve.request.warm").inc()
            request.disposition["warm"] = True
            return False
        self.metrics.counter("serve.request.cold").inc()
        await self.admission.acquire(request.client)
        return True

    def _off_loop(self, call, *args) -> asyncio.Future:
        """``call(*args)`` on the server's thread pool."""
        return asyncio.get_running_loop().run_in_executor(
            self.pool, call, *args
        )

    def _engine_job(self, key: str, call):
        """A flight ``start`` for one engine job, ``call(progress=None)``.

        A result already in the engine's memo under ``key`` comes back on
        the loop, with no thread hop; ``call`` still goes through the
        engine's own lookup, which counts the memo hit. Anything else
        (store reads, computation) runs on the server's pool, with
        progress fanned out to the flight's subscribers.
        """

        async def start(flight: Flight):
            if self.engine.memoised(key):
                return call()
            return await self._off_loop(
                partial(call, progress=self._progress_publisher(flight))
            )

        return start

    async def _run_flight(
        self, key: str, kind: str, start, payload, held: bool,
        stream: bool = False,
    ) -> Response:
        """The response to one job; a held slot goes back when the job's
        flight settles.

        With ``stream`` it is the job's NDJSON event stream; otherwise it
        is the payload of the flight's result. Either way the flight is
        created or joined before this request's next await, so an
        identical request after it joins instead of counting cold.
        """
        if stream:
            return self._stream_flight(key, kind, start, payload, held)
        try:
            result = await self.coalescer.run(key, start)
        finally:
            if held:
                self.admission.release()
        return Response(200, payload(result))

    def _stream_flight(
        self, key: str, kind: str, start, payload, held: bool,
    ) -> Response:
        """NDJSON event stream for one job (accepted → progress → result).

        The flight is joined and subscribed to here, before the 200
        header goes out, so no progress event is missed; admission was
        settled before that too, so an overloaded server still rejects
        the request with a plain 429/503. The slot goes back when the
        flight settles, even if the client resets before its stream
        starts.
        """
        coalesced = self.coalescer.get(key) is not None
        flight = self.coalescer.join(key, start)
        if held:
            flight.task.add_done_callback(
                lambda _: self.admission.release()
            )
        queue = flight.subscribe()

        async def events() -> AsyncIterator[dict]:
            yield {
                "event": "accepted",
                "key": key,
                "kind": kind,
                "coalesced": coalesced,
            }
            while True:
                event = await queue.get()
                if event.get("event") == "done":
                    break
                yield event
            try:
                result = await self.coalescer.wait(flight)
            except Exception as exc:
                yield {"event": "error", "status": 500,
                       "error": f"{type(exc).__name__}: {exc}"}
                return
            yield {"event": "result", "payload": payload(result)}

        return Response(200, stream=events())

    def _progress_publisher(self, flight: Flight):
        """A thread-safe ``progress(done, total)`` that feeds the flight."""
        loop = asyncio.get_running_loop()

        def progress(done: int, total: int) -> None:
            loop.call_soon_threadsafe(
                flight.publish,
                {"event": "progress", "done": done, "total": total},
            )

        return progress


# ----------------------------------------------------------------------
# endpoint handlers
# ----------------------------------------------------------------------
async def _handle_healthz(server: YieldServer, request: Request) -> Response:
    from repro.workloads.compiled import trace_cache_info

    store = server.engine.store
    counters = server.engine.metrics
    return Response(200, {
        "status": "draining" if server.draining else "ok",
        "pid": os.getpid(),
        "uptime_seconds": round(time.time() - server.started, 3),
        "engine": {"workers": server.engine.config.workers},
        "store": store.info() if store is not None else None,
        "compiled_traces": trace_cache_info(),
        "admission": {
            "active": server.admission.active,
            "queued": server.admission.queued,
            "max_active": server.admission.max_active,
            "max_queued": server.admission.max_queued,
        },
        "flights": int(counters.gauge("serve.flights").value),
        "batch_pending": server.batcher.pending(),
        "requests": {
            "total": counters.counter("serve.requests").value,
            "warm": counters.counter("serve.request.warm").value,
            "cold": counters.counter("serve.request.cold").value,
            "windowed": server.rollup.recorded(),
        },
        "request_log": (
            server.request_log.stats()
            if server.request_log is not None else None
        ),
    })


def _metrics_payload(server: YieldServer) -> dict:
    """The JSON form of /metrics (also the dashboard's data source)."""
    return {
        "engine": server.metrics_snapshot(),
        "rollup": server.rollup.snapshot(),
    }


async def _handle_metrics(server: YieldServer, request: Request) -> Response:
    accept = request.headers.get("accept", "")
    if "application/json" in accept.lower():
        return Response(200, _metrics_payload(server))
    # Default (and anything Prometheus-shaped): text exposition.
    text = render_exposition(
        server.metrics_snapshot(), rollup=server.rollup.snapshot()
    )
    return Response.text(200, text, content_type=PROM_CONTENT_TYPE)


async def _handle_debug_traces(
    server: YieldServer, request: Request
) -> Response:
    return Response(200, server.span_ring.snapshot())


async def _handle_dashboard(server: YieldServer, request: Request) -> Response:
    from repro.obs.dashboard import dashboard_html

    return Response.text(
        200,
        dashboard_html(_metrics_payload(server)),
        content_type="text/html; charset=utf-8",
    )


async def _handle_population(server: YieldServer, request: Request) -> Response:
    query = parse_population(request.json())
    start = server._engine_job(query.key, partial(
        server.engine.population, query.settings, query.policy
    ))

    def payload(result) -> dict:
        return population_payload(result, query.detail)

    held = await server._admitted(query.key, "population", request)
    return await server._run_flight(
        query.key, "population", start, payload, held, query.stream
    )


async def _handle_estimate(server: YieldServer, request: Request) -> Response:
    query = parse_estimate(request.json())
    start = server._engine_job(query.key, partial(
        server.engine.estimate, query.settings, query.policy,
        estimator=query.spec,
    ))
    held = await server._admitted(query.key, "estimate", request)
    return await server._run_flight(
        query.key, "estimate", start, estimate_payload, held, query.stream
    )


async def _handle_simulate(server: YieldServer, request: Request) -> Response:
    query = parse_simulation(request.json())
    held = await server._admitted(query.key, "simulation", request)
    if held:
        # Only cold simulations go through the batcher.
        request.disposition["batched"] = True

        async def start(flight: Flight):
            return await server.batcher.simulate(
                query.settings, query.spec,
                progress=server._progress_publisher(flight),
            )
    else:
        def simulate(progress=None):
            return server.engine.simulate_many(
                query.settings, [query.spec], progress=progress
            )[0]

        start = server._engine_job(query.key, simulate)
    return await server._run_flight(
        query.key, "simulation", start, simulation_payload, held,
        query.stream,
    )


async def _handle_experiment(server: YieldServer, request: Request) -> Response:
    from repro.experiments import run_experiment

    query = parse_experiment(request.json())

    def start(flight: Flight):
        return server._off_loop(run_experiment, query.name, query.settings)

    held = await server._admitted(query.key, "experiment", request)
    return await server._run_flight(
        query.key, "experiment", start, experiment_payload, held
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
async def _amain(config: ServeConfig, engine=None, announce=None) -> None:
    from repro.engine import get_engine

    engine = engine if engine is not None else get_engine()
    server = YieldServer(engine, config)
    host, port = await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    if announce is not None:
        announce(server)
    await server.wait_closed()


def run_server(
    config: Optional[ServeConfig] = None, engine=None, announce=None
) -> None:
    """Run the service until SIGTERM/SIGINT completes a graceful drain.

    ``announce(server)`` (optional) is called once the socket is bound —
    the CLI prints the listening address through it.
    """
    asyncio.run(_amain(config or ServeConfig(), engine, announce))


class ServerThread:
    """A :class:`YieldServer` on a background thread (tests, benchmarks).

    Usage::

        thread = ServerThread(engine, ServeConfig(port=0))
        host, port = thread.start()
        ...
        thread.stop()
    """

    def __init__(self, engine, config: Optional[ServeConfig] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else ServeConfig(port=0)
        self.server: Optional[YieldServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Start the server; returns the bound (host, port)."""
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        assert self.server is not None
        return self.server.host, self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain, then join the thread."""
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(
                    lambda: self.server.request_shutdown()
                )
            except RuntimeError:  # loop already gone
                pass
        self._thread.join(timeout)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self.server = YieldServer(self.engine, self.config)
        await self.server.start()
        self._ready.set()
        await self.server.wait_closed()
