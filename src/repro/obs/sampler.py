"""Background resource sampler (RSS and CPU time into gauges).

A daemon thread wakes every ``interval`` seconds, reads this process's
``/proc/self/status`` (``VmRSS``/``VmHWM``) and ``os.times()``, and
writes the readings into gauges on a :class:`MetricsRegistry`:

* ``proc.rss_bytes`` — resident set size at the last sample;
* ``proc.rss_peak_bytes`` — largest RSS seen (kernel high-water mark
  when available, else the max of our own samples);
* ``proc.cpu_user_seconds`` / ``proc.cpu_system_seconds`` — cumulative
  CPU time (children included, so pool workers count);
* ``proc.samples`` — counter of completed sampling sweeps.

``repro run`` and ``repro bench run`` start one around their work so
every run leaves a memory/CPU footprint next to its timings. On
platforms without ``/proc`` the RSS gauges simply stay at zero — CPU
times still work everywhere.

Instrument mutation is thread-safe (counters, gauges and histograms
lock internally — see :mod:`repro.obs.metrics`), so the sampler can
share a registry with experiment code without corrupting either side.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry, get_metrics

__all__ = ["ResourceSampler"]

_STATUS_PATH = "/proc/self/status"

#: /proc/self/status fields we read, and their unit multiplier to bytes.
_STATUS_FIELDS = {"VmRSS:": 1024, "VmHWM:": 1024}


def _read_status() -> Dict[str, int]:
    """``{field: bytes}`` from /proc/self/status; empty off-Linux."""
    values: Dict[str, int] = {}
    try:
        with open(_STATUS_PATH, "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                field = line.split(None, 1)[0] if line.strip() else ""
                if field in _STATUS_FIELDS:
                    parts = line.split()
                    try:
                        values[field] = int(parts[1]) * _STATUS_FIELDS[field]
                    except (IndexError, ValueError):
                        continue
    except OSError:
        return {}
    return values


class ResourceSampler:
    """Samples process memory and CPU usage into registry gauges.

    Use as a context manager (the CLI does) or via explicit
    :meth:`start`/:meth:`stop`; both are idempotent. One final sweep runs
    on stop so even a shorter-than-``interval`` region gets a reading.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        interval: float = 0.05,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.registry = registry if registry is not None else get_metrics()
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._peak_seen = 0.0

    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        status = _read_status()
        rss = status.get("VmRSS:")
        if rss is not None:
            self.registry.gauge("proc.rss_bytes").set(rss)
            self._peak_seen = max(self._peak_seen, float(rss))
        peak = float(status.get("VmHWM:", 0)) or self._peak_seen
        if peak:
            self.registry.gauge("proc.rss_peak_bytes").set(peak)
        times = os.times()
        self.registry.gauge("proc.cpu_user_seconds").set(
            times.user + times.children_user
        )
        self.registry.gauge("proc.cpu_system_seconds").set(
            times.system + times.children_system
        )
        self.registry.counter("proc.samples").inc()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sweep()

    def sample_now(self) -> None:
        """Take one sweep immediately (callers about to read the gauges)."""
        self._sweep()

    # ------------------------------------------------------------------
    def start(self) -> "ResourceSampler":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-resource-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> Dict[str, float]:
        """Stop the thread, take a final sample, and return a summary."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._sweep()
        return self.summary()

    def summary(self) -> Dict[str, float]:
        """The current gauge readings as a plain dict."""
        return {
            "rss_bytes": self.registry.gauge("proc.rss_bytes").value,
            "rss_peak_bytes": self.registry.gauge("proc.rss_peak_bytes").value,
            "cpu_user_seconds": self.registry.gauge(
                "proc.cpu_user_seconds"
            ).value,
            "cpu_system_seconds": self.registry.gauge(
                "proc.cpu_system_seconds"
            ).value,
            "samples": self.registry.counter("proc.samples").value,
        }
