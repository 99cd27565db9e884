"""Hierarchical trace spans with JSONL export.

A *span* measures one named region of work. Spans nest: entering a span
pushes it on a per-thread stack, so a span opened inside another records
that parent's id, and a trace viewer (or ``repro trace summary``) can
rebuild the hierarchy. Durations come from ``time.perf_counter`` (a
monotonic clock — immune to wall-clock steps); each record also carries a
``ts`` wall-clock start so spans from different processes interleave
sensibly.

Export is one JSON object per line, appended with a single ``os.write``
to an ``O_APPEND`` descriptor. On Linux such small appends are atomic, so
pool workers (forked children inherit the configured tracer) and the
parent can share one output file and their lines never interleave — the
whole run merges into a single trace. The file descriptor is re-opened
after a fork (the pid is checked on every emit) so offsets are never
shared.

Tracing is **off** by default and the disabled path is a few attribute
loads returning a shared no-op span — cheap enough to leave :func:`span`
calls on hot-ish paths permanently. Enable with
:func:`configure_tracing` (the CLI's ``--trace out.jsonl``) or the
``REPRO_TRACE_FILE`` environment variable.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Dict, Optional

__all__ = [
    "Span",
    "Tracer",
    "configure_tracing",
    "disable_tracing",
    "span",
    "tracing_enabled",
]

#: Environment variable naming the JSONL destination (enables tracing).
TRACE_FILE_ENV = "REPRO_TRACE_FILE"


class Span:
    """One open trace region; used as a context manager."""

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id", "_wall", "_perf"
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self._wall = 0.0
        self._perf = 0.0

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.span_id, self.parent_id = self.tracer._push()
        self._wall = time.time()
        self._perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._perf
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._pop()
        self.tracer._emit(self, duration)
        return False


class _NullSpan:
    """Shared no-op stand-in when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Appends finished spans to a JSONL file, one process-safe line each."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fd: Optional[int] = None
        self._fd_pid: Optional[int] = None

    # ------------------------------------------------------------------
    # span stack (per thread)
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = f"{os.getpid():x}.{next(self._ids):x}"
        stack.append(span_id)
        return span_id, parent

    def _pop(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span:
        return Span(self, name, attrs)

    def _emit(self, span: Span, duration: float) -> None:
        record = {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "pid": os.getpid(),
            "ts": round(span._wall, 6),
            "dur": round(duration, 9),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        try:
            line = json.dumps(record, separators=(",", ":"), default=str)
        except (TypeError, ValueError):  # unserialisable attrs: keep timing
            record.pop("attrs", None)
            line = json.dumps(record, separators=(",", ":"))
        try:
            os.write(self._descriptor(), (line + "\n").encode("utf-8"))
        except OSError:
            return  # tracing must never fail the run

    def _descriptor(self) -> int:
        pid = os.getpid()
        if self._fd is None or self._fd_pid != pid:
            # First use in this process (or we are a fork): open our own
            # descriptor so the O_APPEND offset is never shared.
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            self._fd_pid = pid
        return self._fd

    def close(self) -> None:
        if self._fd is not None and self._fd_pid == os.getpid():
            try:
                os.close(self._fd)
            except OSError:
                pass
        self._fd = None
        self._fd_pid = None


# ----------------------------------------------------------------------
# the process-wide tracer
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None
_INITIALIZED = False


def _active_tracer() -> Optional[Tracer]:
    global _TRACER, _INITIALIZED
    if not _INITIALIZED:
        _INITIALIZED = True
        path = os.environ.get(TRACE_FILE_ENV)
        if path:
            _TRACER = Tracer(path)
    return _TRACER


def configure_tracing(path: os.PathLike) -> Tracer:
    """Enable tracing to ``path`` (JSONL, appended) for this process.

    Also exported via ``REPRO_TRACE_FILE`` so worker processes created
    under any multiprocessing start method pick the same file up.
    """
    global _TRACER, _INITIALIZED
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(str(path))
    _INITIALIZED = True
    os.environ[TRACE_FILE_ENV] = str(path)
    return _TRACER


def disable_tracing() -> None:
    """Turn tracing off (and stop exporting it to workers)."""
    global _TRACER, _INITIALIZED
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = None
    _INITIALIZED = True
    os.environ.pop(TRACE_FILE_ENV, None)


def tracing_enabled() -> bool:
    """Is a tracer currently active (or configured via the environment)?"""
    return _active_tracer() is not None


def span(name: str, **attrs: object):
    """A span under the active tracer, or a shared no-op when disabled.

    The disabled path is one module lookup returning a shared singleton,
    so callers can wrap hot regions unconditionally::

        with span("engine.dispatch", jobs=len(jobs)) as s:
            ...
            s.set(misses=misses)
    """
    tracer = _active_tracer()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)
