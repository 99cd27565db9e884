"""Variable-latency Cache Architecture (paper Section 4.3).

VACA keeps every way powered but lets slow ways complete in 5 cycles
instead of 4. Load-bypass buffers with a single entry in front of each
functional unit absorb exactly one extra cycle, so a way needing 6 or more
cycles is beyond rescue, and because nothing is powered down VACA cannot
fix a leakage violation at all.

:class:`DeepVACA` generalises to multi-entry buffers — the extension the
paper discusses and rejects ("the additional yield optimizations ... are
minor and the performance degradation can be very high"); the
``ablation_lbb`` experiment quantifies that trade-off.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigurationError
from repro.schemes.base import Decisions, Scheme
from repro.yieldmodel.classify import ChipColumns, VACA_MAX_CYCLES
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["VACA", "DeepVACA", "served_within"]


def served_within(chips: ChipColumns, max_cycles: int) -> np.ndarray:
    """Chips that pass, or whose slowest way needs at most ``max_cycles``
    with no leakage violation (nothing is powered down). (C,) bool."""
    return chips.passes | (
        ~chips.leakage_violation
        & (chips.way_cycles.max(axis=1) <= max_cycles)
    )


class VACA(Scheme):
    """Tolerate 5-cycle ways via load-bypass buffers; no power-down."""

    name = "VACA"

    def decide(self, chips: ChipColumns) -> Decisions:
        return Decisions.of(chips, served_within(chips, VACA_MAX_CYCLES))


class DeepVACA(Scheme):
    """VACA with ``slack``-entry load-bypass buffers (paper Section 4.3's
    rejected extension: tolerate ways up to ``4 + slack`` cycles).

    Parameters
    ----------
    slack:
        Extra cycles the buffers can absorb (1 reproduces :class:`VACA`).
    """

    def __init__(self, slack: int = 2) -> None:
        if slack < 0:
            raise ConfigurationError(f"slack must be >= 0, got {slack}")
        self.slack = slack
        self.name = f"VACA+{slack}"

    @property
    def max_cycles(self) -> int:
        """Slowest tolerable way latency."""
        return BASE_ACCESS_CYCLES + self.slack

    def decide(self, chips: ChipColumns) -> Decisions:
        return Decisions.of(chips, served_within(chips, self.max_cycles))
