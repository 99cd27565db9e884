"""Method/path routing for the serve HTTP surface.

A deliberately small router: exact-path matching over a handful of
endpoints, returning 404 for unknown paths and 405 (with ``Allow``) for
known paths asked with the wrong method. Handlers are coroutine
functions ``handler(server, request)`` returning a
:class:`~repro.serve.server.Response`.
"""

from __future__ import annotations

from typing import Awaitable, Callable, Dict, List, Optional

__all__ = ["Router", "RouteError"]

Handler = Callable[..., Awaitable[object]]


class RouteError(Exception):
    """No handler for this request (carries status and detail)."""

    def __init__(self, status: int, reason: str, allow: Optional[List[str]] = None):
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.allow = allow or []


class Router:
    """Exact-match request routing table."""

    def __init__(self) -> None:
        self._routes: Dict[str, Dict[str, Handler]] = {}

    def add(self, method: str, path: str, handler: Handler) -> None:
        """Register ``handler`` for ``method path``."""
        self._routes.setdefault(path, {})[method.upper()] = handler

    def known(self, path: str) -> bool:
        """Is ``path`` a registered endpoint (any method)?

        The rollup layer uses this to keep its per-endpoint series
        bounded: unknown paths collapse to one synthetic endpoint
        instead of letting a scanner mint unbounded label values.
        """
        return path in self._routes

    def resolve(self, method: str, path: str) -> Handler:
        """The handler for ``method path``; raises :class:`RouteError`."""
        methods = self._routes.get(path)
        if methods is None:
            raise RouteError(404, f"no such endpoint: {path}")
        handler = methods.get(method.upper())
        if handler is None:
            raise RouteError(
                405,
                f"{method} not allowed on {path}",
                allow=sorted(methods),
            )
        return handler
