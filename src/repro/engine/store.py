"""Content-addressed persistent result store.

Every expensive result (an evaluated Monte Carlo population, one pipeline
simulation, a yield estimate) is stored as one JSON file under
``<root>/<kind>/<key>.json``, where ``key`` is the SHA-256 of a canonical
JSON encoding of the job's full identity (schema version, kind, and every
parameter that influences the result). The payload is what
:mod:`repro.engine.codec` encodes; a population's circuit columns are
base64 text of their little-endian float64 bytes. Properties:

* **Content addressing** — identical work always lands on the same file,
  across processes and machines; a parameter change produces a new key.
* **Versioned schema** — the schema version participates in the key and
  is re-checked on load, so upgrading the on-disk format silently
  invalidates old entries instead of misreading them. Each is recomputed
  once; the orphaned files age out under the cap.
* **Corruption tolerance** — a truncated, garbled, or wrong-version entry
  is discarded (and unlinked) on load and simply recomputed; a broken
  cache can never fail an experiment.
* **LRU size cap** — loads refresh an entry's mtime; saves keep a
  running byte total and, once it crosses the budget, rescan the store
  and evict the stalest entries (see :class:`ResultStore`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["ResultStore", "SCHEMA_VERSION", "canonical_json"]

#: Bump when the payload encoding of any kind changes incompatibly
#: (2: population columns as base64 ``<f8`` text).
SCHEMA_VERSION = 2

#: A rescan past the cap evicts down to this fraction of it, so a store
#: at its budget does not rescan on every save.
_EVICT_TO = 0.9

#: Name prefix of a save's temporary file; one older than
#: :data:`_STALE_TMP_SECONDS` belongs to a writer that died mid-save.
_TMP_PREFIX = ".tmp-"
_STALE_TMP_SECONDS = 3600.0


def canonical_json(value: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """On-disk JSON store with content-addressed keys and an LRU cap.

    A save writes the entry to a ``.tmp-*`` file in the entry's directory
    and moves it into place with ``os.replace``, so a reader sees the old
    entry, the new one or none, never a partial one. The text is one
    C-encoded ``json.dumps`` of the wrapper, byte-equal to
    ``json.dump(wrapper, handle, separators=(",", ":"))``; no payload
    holds a large list (populations store their columns as base64
    text), so one string per entry stays small.

    With a cap, the process scans the store once, at its first save, and
    then adds each save's bytes to a running total (under a lock, since
    serve saves from several engine threads). When the total crosses
    ``max_bytes`` it rescans: entries sorted by mtime, which loads
    refresh, are evicted stalest first down to 90% of the cap. Every
    scan also deletes ``.tmp-*`` files older than an hour, which a
    writer killed mid-save leaves behind. Overwrites and entries deleted
    by loads or other processes make the total count high, which only
    brings the next rescan forward; it never counts low. Another
    process's saves are counted at this process's next rescan, so with
    several writers the store can exceed the cap by what the others
    saved since then; each rescan brings it back under.

    Parameters
    ----------
    root:
        Directory holding the store (created lazily on first save).
    max_bytes:
        Byte budget; ``None`` or ``<= 0`` disables eviction.
    metrics:
        Optional registry receiving I/O counters (``store.load.hit``,
        ``store.load.miss``, ``store.load.corrupt``, ``store.save``,
        ``store.evictions``, ``store.bytes_written``) and latency
        histograms (``store.load_seconds``, ``store.save_seconds``).
        The engine passes its own registry; a bare store stays silent.
    """

    def __init__(
        self,
        root: pathlib.Path,
        max_bytes: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.max_bytes = max_bytes if max_bytes and max_bytes > 0 else None
        self.metrics = metrics
        #: Bytes of the store as this process counts them; ``None``
        #: until the first capped save scans the store.
        self._total: Optional[int] = None
        self._total_lock = threading.Lock()

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(seconds)

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(kind: str, identity: Dict[str, object]) -> str:
        """SHA-256 key of a job identity (version and kind included)."""
        body = canonical_json(
            {"version": SCHEMA_VERSION, "kind": kind, "identity": identity}
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def path_for(self, kind: str, key: str) -> pathlib.Path:
        """The file that would hold entry ``(kind, key)``."""
        return self.root / kind / f"{key}.json"

    # ------------------------------------------------------------------
    # load / save
    # ------------------------------------------------------------------
    def load(self, kind: str, key: str) -> Optional[dict]:
        """The stored payload, or ``None`` when absent or unreadable."""
        path = self.path_for(kind, key)
        start = time.perf_counter()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                wrapper = json.load(handle)
            if (
                not isinstance(wrapper, dict)
                or wrapper.get("version") != SCHEMA_VERSION
                or wrapper.get("kind") != kind
                or "payload" not in wrapper
            ):
                raise ValueError("bad store entry")
        except FileNotFoundError:
            self._count("store.load.miss")
            return None
        except (OSError, ValueError):
            # Corrupt or foreign entry: discard it so it is recomputed.
            self._count("store.load.corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        self._count("store.load.hit")
        self._observe("store.load_seconds", time.perf_counter() - start)
        return wrapper["payload"]

    def save(self, kind: str, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``(kind, key)``."""
        path = self.path_for(kind, key)
        wrapper = {"version": SCHEMA_VERSION, "kind": kind, "payload": payload}
        if self.max_bytes is not None:
            with self._total_lock:
                if self._total is None:
                    self._total = self._rescan()
        start = time.perf_counter()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=_TMP_PREFIX, suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(json.dumps(wrapper, separators=(",", ":")))
                written = os.path.getsize(tmp)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            return  # a read-only or full disk must never fail the run
        self._count("store.save")
        self._count("store.bytes_written", written)
        self._observe("store.save_seconds", time.perf_counter() - start)
        if self.max_bytes is not None:
            with self._total_lock:
                if self._total is not None:  # None: clear() ran meanwhile
                    self._total += written
                    if self._total > self.max_bytes:
                        self._total = self._rescan()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[pathlib.Path]:
        """Every entry file currently in the store (temp files excluded)."""
        if not self.root.is_dir():
            return []
        # Entries are "<key>.json"; temp files start with a dot.
        return sorted(self.root.glob("*/[!.]*.json"))

    def info(self) -> Dict[str, object]:
        """Store location, entry count, and sizes (``repro cache info``)."""
        entries = self.entries()
        total = 0
        per_kind: Dict[str, int] = {}
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:
                continue
            kind = path.parent.name
            per_kind[kind] = per_kind.get(kind, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total,
            "max_bytes": self.max_bytes,
            "per_kind": per_kind,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also deletes stale temp files; the next capped save rescans.
        """
        removed = 0
        with self._total_lock:
            self._sweep_stale_temps()
            for path in self.entries():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
            self._total = None
        return removed

    def _sweep_stale_temps(self) -> None:
        """Delete temp files a writer left behind over an hour ago."""
        cutoff = time.time() - _STALE_TMP_SECONDS
        for path in self.root.glob(f"*/{_TMP_PREFIX}*"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                continue

    def _rescan(self) -> int:
        """Scan the store, evict past the cap; returns the bytes kept.

        Sweeps stale temp files, then, if the entries exceed
        ``max_bytes``, evicts the least recently used ones until they
        fit in :data:`_EVICT_TO` of it, always keeping the newest entry.
        Callers hold ``_total_lock``.
        """
        self._sweep_stale_temps()
        stamped = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return total
        stamped.sort()  # oldest access first
        target = int(self.max_bytes * _EVICT_TO)
        for _, size, path in stamped[:-1]:
            if total <= target:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self._count("store.evictions")
        return total
