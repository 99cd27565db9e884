"""Zero-dependency metrics primitives.

A :class:`MetricsRegistry` hands out named :class:`Counter`,
:class:`Gauge` and :class:`Histogram` instruments. Instruments are
created on first use and shared by name, so any layer can say
``registry.counter("store.load.hit").inc()`` without coordination.

Every :class:`~repro.engine.core.Engine` owns one registry, and it is
the only one: it backs the engine's
:class:`~repro.engine.stats.EngineStats` view, its store counters and
its ``yield.*`` gauges, and serve writes its own instruments into the
engine's registry too. Code with no engine in reach (the model layers,
the pipeline simulator in a pool worker) publishes no metrics; its
timings travel as trace-span attributes.

Everything here is plain Python on purpose: instruments sit on hot-ish
paths (once per job, never per simulated cycle) and must not pull in
anything the container lacks.

Thread safety: mutation through :meth:`Counter.inc`, :meth:`Gauge.set`
and :meth:`Histogram.observe` takes a per-instrument lock, and the
registry locks instrument creation — serve's pool threads
(:mod:`repro.serve.server`) share the engine's registry with its event
loop.
Direct writes to ``Counter.value`` (the :class:`EngineStats` property
setters) stay unlocked and remain confined to the engine's own thread.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing value (floats allowed for seconds)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value (e.g. the latest base-yield estimate)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


#: Default histogram bucket upper bounds (seconds-oriented, log-spaced).
DEFAULT_BUCKETS: Sequence[float] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Buckets are upper bounds; observations beyond the last bound land in
    an implicit overflow bucket. Good enough for latency distributions
    without keeping every sample.
    """

    __slots__ = (
        "name", "bounds", "bucket_counts", "count", "total", "min", "max",
        "_lock",
    )

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        self.bounds: List[float] = sorted(bounds or DEFAULT_BUCKETS)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {
                f"le_{bound:g}": count
                for bound, count in zip(self.bounds, self.bucket_counts)
            },
            "overflow": self.bucket_counts[-1],
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    A name identifies exactly one instrument; asking for the same name
    with a different instrument type is a programming error and raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Guards first-use creation: two threads asking for the same
        # name must end up sharing one instrument, not racing on it.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    self._check_free(name, self._counters)
                    instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    self._check_free(name, self._gauges)
                    instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    self._check_free(name, self._histograms)
                    instrument = self._histograms[name] = Histogram(
                        name, bounds
                    )
        return instrument

    def _check_free(self, name: str, own: Dict[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered as a different type"
                )

    # ------------------------------------------------------------------
    def histograms(self) -> Dict[str, Histogram]:
        """The registered histograms, by name (a shallow copy)."""
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict dump of every instrument (JSON-able)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }


