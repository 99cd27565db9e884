"""Structured request logging and bounded span retention for serve.

Two small, serve-facing pieces:

* :class:`RequestLog` — an append-only JSONL log of finished requests
  (one object per line: request id, client, method, path, status,
  latency, disposition flags). Writes happen under a lock with
  ``O_APPEND`` semantics so the file stays line-atomic even if a future
  change moves handling off the event-loop thread; a failed write
  disables the log rather than failing requests.
* :class:`SpanRing` — a bounded in-memory ring of the most recent
  ``serve.request`` span records, backing ``GET /debug/traces``. Unlike
  the JSONL trace file (which needs ``--trace`` and a filesystem), the
  ring is always on and answers "what just happened" without tooling.

:func:`new_request_id` mints ids that are short enough for log lines
but unique enough to correlate a client response header with its span
and log entry.
"""

from __future__ import annotations

import collections
import json
import os
import threading
from typing import Deque, Dict, List, Optional

__all__ = ["new_request_id", "RequestLog", "SpanRing"]


def new_request_id() -> str:
    """A 16-hex-char id, e.g. ``"a3f19c0b4d2e8710"``."""
    return os.urandom(8).hex()


class RequestLog:
    """Thread-safe JSONL request log.

    The file is opened lazily on the first record so constructing a
    server with ``request_log=...`` costs nothing until traffic arrives,
    and opening failures surface on the first request instead of at
    configuration time (where serve would have to abort).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._failed = False
        self.written = 0
        self.dropped = 0

    def record(self, entry: Dict[str, object]) -> None:
        """Append one entry; never raises into the request path."""
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self._failed:
                self.dropped += 1
                return
            try:
                if self._fd is None:
                    parent = os.path.dirname(os.path.abspath(self.path))
                    os.makedirs(parent, exist_ok=True)
                    self._fd = os.open(
                        self.path,
                        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                        0o644,
                    )
                os.write(self._fd, line)
                self.written += 1
            except OSError:
                self._failed = True
                self.dropped += 1
                if self._fd is not None:
                    try:
                        os.close(self._fd)
                    except OSError:
                        pass
                    self._fd = None

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "path": self.path,
                "written": self.written,
                "dropped": self.dropped,
                "failed": self._failed,
            }


class SpanRing:
    """Bounded ring buffer of recent span records (most recent last)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, object]] = collections.deque(
            maxlen=self.capacity
        )
        self._appended = 0

    def append(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._ring.append(record)
            self._appended += 1

    def snapshot(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The retained spans plus retention accounting.

        ``dropped`` counts spans aged out of the ring, so a consumer can
        tell "quiet server" from "busy server whose history scrolled".
        """
        with self._lock:
            spans: List[Dict[str, object]] = list(self._ring)
            appended = self._appended
        dropped = appended - len(spans)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return {
            "capacity": self.capacity,
            "appended": appended,
            "retained": len(spans),
            "dropped": dropped,
            "spans": spans,
        }
