"""Naive latency re-binning (paper Section 4.5).

The easiest way to ship a delay-violating chip is to re-bin it: tell the
scheduler that *every* load takes 5 (or 6) cycles, so even the slowest way
meets timing. No hardware changes, but every access — including those to
perfectly fast ways — pays the extra latency, which the paper measures at
6.42% average CPI degradation for one extra cycle and 12.62% for two.
Leakage violations are untouched.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigurationError
from repro.schemes.base import Decisions, Scheme
from repro.schemes.vaca import served_within
from repro.yieldmodel.classify import ChipColumns
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["NaiveBinning"]


class NaiveBinning(Scheme):
    """Run the whole cache at a uniformly higher access latency.

    Parameters
    ----------
    target_cycles:
        The uniform access latency of the new bin (5 or 6 in the paper).
    """

    def __init__(self, target_cycles: int = BASE_ACCESS_CYCLES + 1) -> None:
        if target_cycles < BASE_ACCESS_CYCLES:
            raise ConfigurationError(
                f"target_cycles must be >= {BASE_ACCESS_CYCLES}"
            )
        self.target_cycles = target_cycles
        self.name = f"Binning@{target_cycles}"

    def decide(self, chips: ChipColumns) -> Decisions:
        saved = served_within(chips, self.target_cycles)
        rebinned = saved & ~chips.passes
        return Decisions.of(
            chips,
            saved,
            np.where(rebinned[:, None], self.target_cycles, chips.way_cycles),
        )
