"""``repro serve`` — a long-running yield-analysis service.

A stdlib-only asyncio HTTP/JSON front end over the synchronous
:mod:`repro.engine` library: population / simulation / experiment
queries keyed by the engine's deterministic job identities, answered
from the warm store when possible, coalesced when duplicated in flight,
batched behind a running pool dispatch when compatible, and admission-
controlled (bounded queues, per-client round-robin fairness, 429/503 on
overload). Progress streams as chunked JSON lines; ``/metrics`` and
``/healthz`` expose the obs layer as a live dashboard; SIGTERM drains
in-flight jobs before exit.

See :mod:`repro.serve.server` for the architecture walk-through and
:mod:`repro.serve.client` for the stdlib client.
"""

from repro.serve.admission import AdmissionController, RejectedError
from repro.serve.batcher import SimulationBatcher
from repro.serve.client import ServeClient, ServeError
from repro.serve.coalescer import Coalescer, Flight
from repro.serve.protocol import ProtocolError
from repro.serve.router import RouteError, Router
from repro.serve.server import (
    Request,
    Response,
    ServeConfig,
    ServerThread,
    YieldServer,
    run_server,
)

__all__ = [
    "AdmissionController",
    "Coalescer",
    "Flight",
    "ProtocolError",
    "RejectedError",
    "Request",
    "Response",
    "RouteError",
    "Router",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "SimulationBatcher",
    "YieldServer",
    "run_server",
]
