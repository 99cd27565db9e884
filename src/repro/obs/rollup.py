"""Rolling time-window request aggregation with streaming quantiles.

The cumulative :class:`~repro.obs.metrics.MetricsRegistry` answers "how
much since boot"; an operator watching live traffic needs "how much *in
the last minute*" — rates, latency percentiles and error ratios that
decay as traffic changes. This module provides that layer for the serve
surface:

* :class:`QuantileSketch` — a bounded reservoir sampler with exact
  count/sum/min/max. Up to ``capacity`` observations the quantiles are
  exact; beyond it the reservoir is a uniform sample of the stream
  (Vitter's algorithm R with a seeded, per-sketch RNG, so runs are
  reproducible), giving p50/p95/p99 estimates whose rank error shrinks
  as ``1/sqrt(capacity)``.
* :class:`RequestRollup` — a ring of fixed-width time windows per
  endpoint. Every request records its latency, status class and
  disposition (warm/cold, coalesced, batched) into the current window;
  windows older than the ring's span are recycled in place, so memory is
  bounded by ``endpoints × windows × capacity`` regardless of uptime.

Thread safety: the serve layer records from its event-loop thread while
``/metrics`` scrapes snapshot from request handlers and tests hammer it
from many threads, so every mutation and snapshot takes the rollup's
lock. The lock is held for microseconds (a reservoir poke), never across
I/O.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from typing import Dict, List, Optional, Sequence

__all__ = ["QuantileSketch", "RequestRollup"]

#: Quantiles every snapshot reports, in exposition order.
SNAPSHOT_QUANTILES: Sequence[float] = (0.5, 0.95, 0.99)


class QuantileSketch:
    """Streaming quantile estimation over a bounded reservoir.

    Not thread-safe on its own — callers (the rollup) serialize access.
    """

    __slots__ = ("capacity", "count", "total", "min", "max", "_samples",
                 "_rng")

    def __init__(self, capacity: int = 512, seed: int = 2006) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: List[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            # Algorithm R: keep each of the `count` observations in the
            # reservoir with probability capacity/count.
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = value

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples.clear()


def _quantile_of(ordered: Sequence[float], q: float) -> float:
    """Interpolated quantile of an already-sorted sequence (0.0 if empty)."""
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    position = q * (len(ordered) - 1)
    low = int(position)
    if low + 1 >= len(ordered):
        return float(ordered[-1])
    fraction = position - low
    return float(ordered[low] * (1.0 - fraction) + ordered[low + 1] * fraction)


#: Disposition flags a request may carry (snapshot key order).
_DISPOSITIONS = ("warm", "cold", "coalesced", "batched")


class _Window:
    """One fixed-width time window of one endpoint's series."""

    __slots__ = ("index", "count", "sketch", "statuses", "dispositions")

    def __init__(self, capacity: int, seed: int) -> None:
        self.index = -1  # absolute window index; -1 = never used
        self.count = 0
        self.sketch = QuantileSketch(capacity=capacity, seed=seed)
        self.statuses: Dict[str, int] = {}
        self.dispositions: Dict[str, int] = {}

    def reset(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.sketch.reset()
        self.statuses.clear()
        self.dispositions.clear()


class RequestRollup:
    """Per-endpoint rolling-window request statistics.

    Parameters
    ----------
    window_seconds:
        Width of one window (the rotation period).
    windows:
        Ring length; the snapshot covers ``windows × window_seconds`` of
        history (the oldest window is partially aged out in place).
    sketch_capacity:
        Reservoir size per window (per endpoint).
    """

    def __init__(
        self,
        window_seconds: float = 10.0,
        windows: int = 6,
        sketch_capacity: int = 512,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if windows < 1:
            raise ValueError("windows must be >= 1")
        self.window_seconds = float(window_seconds)
        self.windows = int(windows)
        self.sketch_capacity = int(sketch_capacity)
        self._lock = threading.Lock()
        self._series: Dict[str, List[_Window]] = {}
        self._recorded = 0  # lifetime records (rotation-loss accounting)

    # ------------------------------------------------------------------
    def _ring_for(self, endpoint: str) -> List[_Window]:
        ring = self._series.get(endpoint)
        if ring is None:
            # Seed per (endpoint, slot) so reservoirs are independent but
            # a rerun of the same traffic reproduces the same estimates;
            # crc32, unlike hash(), is the same in every process.
            base = zlib.crc32(endpoint.encode("utf-8")) & 0xFFFF
            ring = self._series[endpoint] = [
                _Window(self.sketch_capacity, seed=base ^ i)
                for i in range(self.windows)
            ]
        return ring

    def record(
        self,
        endpoint: str,
        status: int,
        seconds: float,
        warm: bool = False,
        coalesced: bool = False,
        batched: bool = False,
        now: Optional[float] = None,
    ) -> None:
        """Record one finished request into the current window."""
        now = time.time() if now is None else now
        index = int(now // self.window_seconds)
        status_class = f"{int(status) // 100}xx"
        with self._lock:
            self._recorded += 1
            window = self._ring_for(endpoint)[index % self.windows]
            if index > window.index:
                window.reset(index)
            # index < window.index means a late record (clock skew or a
            # completion straddling rotation): fold it into the newer
            # window occupying the slot rather than rewinding the ring —
            # rotation must be monotone or concurrent writers could
            # clobber each other's windows.
            window.count += 1
            window.sketch.observe(seconds)
            window.statuses[status_class] = (
                window.statuses.get(status_class, 0) + 1
            )
            for flag, on in (
                ("warm", warm), ("cold", not warm),
                ("coalesced", coalesced), ("batched", batched),
            ):
                if on:
                    window.dispositions[flag] = (
                        window.dispositions.get(flag, 0) + 1
                    )

    # ------------------------------------------------------------------
    def recorded(self) -> int:
        """Lifetime number of records (windows aged out included)."""
        with self._lock:
            return self._recorded

    def span_seconds(self) -> float:
        """How much history one snapshot covers."""
        return self.window_seconds * self.windows

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        """Aggregate the live windows into a JSON-able summary.

        Per endpoint (and as a cross-endpoint ``total``): windowed
        request count, rate per second over the covered span, latency
        quantiles/mean/max from the merged reservoirs, status-class
        counts, error rate (4xx+5xx share) and disposition counts.
        """
        now = time.time() if now is None else now
        current = int(now // self.window_seconds)
        oldest = current - self.windows + 1
        with self._lock:
            endpoints: Dict[str, Dict[str, object]] = {}
            total_samples: List[float] = []
            total = _Aggregate()
            for endpoint, ring in sorted(self._series.items()):
                agg = _Aggregate()
                samples: List[float] = []
                for window in ring:
                    if not oldest <= window.index <= current:
                        continue  # recycled or stale slot
                    agg.add(window)
                    samples.extend(window.sketch._samples)
                if agg.count == 0:
                    continue
                endpoints[endpoint] = agg.summary(
                    samples, self.span_seconds()
                )
                total.merge(agg)
                total_samples.extend(samples)
            return {
                "window_seconds": self.window_seconds,
                "windows": self.windows,
                "span_seconds": self.span_seconds(),
                "recorded_total": self._recorded,
                "endpoints": endpoints,
                "total": total.summary(total_samples, self.span_seconds()),
            }


class _Aggregate:
    """Mutable accumulator merging windows into one summary."""

    __slots__ = ("count", "total", "max", "statuses", "dispositions")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.statuses: Dict[str, int] = {}
        self.dispositions: Dict[str, int] = {}

    def add(self, window: _Window) -> None:
        self.count += window.count
        self.total += window.sketch.total
        if window.sketch.count and window.sketch.max > self.max:
            self.max = window.sketch.max
        for status, n in window.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + n
        for flag, n in window.dispositions.items():
            self.dispositions[flag] = self.dispositions.get(flag, 0) + n

    def merge(self, other: "_Aggregate") -> None:
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max
        for status, n in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + n
        for flag, n in other.dispositions.items():
            self.dispositions[flag] = self.dispositions.get(flag, 0) + n

    def summary(
        self, samples: List[float], span: float
    ) -> Dict[str, object]:
        errors = sum(
            n for status, n in self.statuses.items()
            if status in ("4xx", "5xx")
        )
        ordered = sorted(samples)
        return {
            "count": self.count,
            "rate": self.count / span if span > 0 else 0.0,
            "mean": self.total / self.count if self.count else 0.0,
            "max": self.max,
            "quantiles": {
                f"{q:g}": _quantile_of(ordered, q)
                for q in SNAPSHOT_QUANTILES
            },
            "statuses": dict(sorted(self.statuses.items())),
            "error_rate": errors / self.count if self.count else 0.0,
            "dispositions": {
                flag: self.dispositions.get(flag, 0)
                for flag in _DISPOSITIONS
            },
        }
