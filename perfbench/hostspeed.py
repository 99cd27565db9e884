"""Host-speed gauge: the benchmark's times are reference seconds.

The benchmark host is a small VM on a shared machine. Its speed drifts by
up to 1.8x for tens of seconds at a time, each vCPU on its own, so plain
wall time moves with the host far more than with any change to the
program. Every process that does timed work therefore runs a
:class:`Gauge`: an interval timer interrupts it every ``PERIOD_S`` seconds
and times one short, fixed pure-Python probe in the interrupted (main)
thread, on the CPU the work runs on. :meth:`Timeline.seconds` turns a
stretch of wall time into the time the same work takes at the reference
speed: the probes' own time is taken out, and each piece between two
probes is scaled by ``REFERENCE_S`` over the median of the probes around
the one that starts it.

The probes cost about 0.75% of a process's time. ``Gauge`` only needs
``signal`` and ``time``, so a process can start it before importing the
program and gauge its own set-up too.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Sequence, Tuple

#: Seconds between two probes.
PERIOD_S = 0.02
#: Median probe time on the reference host in its fast periods: a stretch
#: measured at that speed reads the same in reference seconds.
REFERENCE_S = 150e-6
#: Probes on each side of a sample in its rolling median (about 0.5 s).
HALF_WINDOW = 12

Sample = Tuple[float, float]


def probe() -> int:
    """The fixed unit of work whose duration measures the host's speed."""
    total = 0
    for i in range(3000):
        total += i & 7
    return total


class Gauge:
    """(start, duration) of every probe taken in this process."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> List[Sample]:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
        return self.samples


class Timeline:
    """The probes of one process, to scale stretches of its wall time.

    Times are ``time.perf_counter()`` values, which on Linux read one
    monotonic clock in every process, so a stretch timed by the
    benchmark can be scaled with the probes of the process that did it.
    """

    def __init__(self, samples: Sequence[Sample]) -> None:
        if not samples:
            raise ValueError("no probe samples")
        ordered = sorted(samples)
        self.starts = [start for start, _ in ordered]
        self.durations = [duration for _, duration in ordered]
        self.speed = []
        for index in range(len(ordered)):
            window = sorted(self.durations[max(0, index - HALF_WINDOW):
                                           index + HALF_WINDOW + 1])
            self.speed.append(REFERENCE_S / window[len(window) // 2])

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work done between ``start`` and ``end``."""
        index = bisect.bisect_right(self.starts, start)
        speed = self.speed[max(index - 1, 0)]
        at = start
        if index > 0:  # the probe before ``start`` may still be running
            at = max(at, min(end, self.starts[index - 1]
                             + self.durations[index - 1]))
        total = 0.0
        while index < len(self.starts) and self.starts[index] < end:
            total += (self.starts[index] - at) * speed
            speed = self.speed[index]
            at = min(end, self.starts[index] + self.durations[index])
            index += 1
        return total + max(0.0, end - at) * speed
