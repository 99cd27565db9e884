"""Load-bypass buffer accounting (paper Section 4.3, Figure 7).

The VACA hardware adds a small buffer at each functional-unit input. A
dependent that was scheduled assuming a 4-cycle load but whose load
resolves in 5 cycles waits in the buffer for one cycle and then executes;
the buffer compares the forwarded destination register against its stored
operand tag and latches the value — from the data cache or, for
transitively delayed instructions, from another functional unit.

For timing purposes what matters is (a) how many extra cycles one entry
can absorb (one), and (b) how often entries are occupied. This class
tracks per-cycle occupancy against the configured capacity so the
simulator can detect (rare) structural overflows and report utilisation.
"""

from __future__ import annotations

from typing import Dict

from repro.core.validation import require_non_negative, require_positive

__all__ = ["LoadBypassBuffers"]


class LoadBypassBuffers:
    """Occupancy tracker for the per-FU-input bypass buffers.

    Parameters
    ----------
    capacity:
        Total entries across all functional-unit inputs that may hold a
        stalled instruction in the same cycle. The paper's design has one
        entry per FU input operand; with ~8 FUs and two operand buffers
        each, 16 is the matching default.
    slack:
        Extra cycles one entry can absorb (single-entry buffers: 1).
    """

    __slots__ = (
        "capacity",
        "slack",
        "_occupancy",
        "total_stalls",
        "overflows",
        "peak",
    )

    def __init__(self, capacity: int = 16, slack: int = 1) -> None:
        require_positive(capacity, "capacity")
        require_non_negative(slack, "slack")
        self.capacity = capacity
        self.slack = slack
        self._occupancy: Dict[int, int] = {}
        self.total_stalls = 0
        self.overflows = 0
        self.peak = 0

    def try_hold(self, cycle: int, duration: int) -> bool:
        """Reserve one entry for ``duration`` cycles starting at ``cycle``.

        Returns False (an overflow: the instruction must replay instead)
        when every entry is already occupied in any of those cycles, or
        when the duration exceeds what one entry can absorb.
        """
        if duration > self.slack:
            return False
        occupancy = self._occupancy
        end = cycle + duration
        for c in range(cycle, end):
            if occupancy.get(c, 0) >= self.capacity:
                self.overflows += 1
                return False
        for c in range(cycle, end):
            held = occupancy.get(c, 0) + 1
            occupancy[c] = held
            if held > self.peak:
                self.peak = held
        self.total_stalls += 1
        return True

    def release_before(self, cycle: int) -> None:
        """Drop bookkeeping for cycles before ``cycle`` (memory hygiene)."""
        stale = [c for c in self._occupancy if c < cycle]
        for c in stale:
            del self._occupancy[c]
