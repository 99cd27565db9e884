"""Yield-Aware Power-Down (paper Section 4.1).

YAPD permanently gates off at most one cache way (Selective Cache Ways
combined with Gated-Vdd, so the way's decoders, precharge and sense
circuits stop leaking too):

* a way that violates the delay limit is turned off;
* if the cache violates the leakage limit, the highest-leakage way is
  turned off.

The 2% performance-degradation budget (Section 4.2) allows only a single
way to be disabled, so chips with two or more delay-violating ways — or
whose leakage remains excessive after removing the worst way — stay lost.
"""

from __future__ import annotations

import numpy as np

from repro.schemes.base import Decisions, Scheme
from repro.yieldmodel.classify import ChipColumns
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["YAPD"]


class YAPD(Scheme):
    """Power down one vertical way to fix a delay or leakage violation."""

    name = "YAPD"

    def decide(self, chips: ChipColumns) -> Decisions:
        # The single way to gate off: the one slow way, else (leakage
        # only) the leakiest. With at most one slow way and that way
        # gated off, every remaining way meets the delay limit, so only
        # the residual leakage is left to check.
        violators = chips.delay_violations.sum(axis=1)
        target = np.where(
            violators == 1,
            chips.delay_violations.argmax(axis=1),
            chips.leakiest_way,
        )
        rows = np.arange(chips.count)
        rescued = (violators <= 1) & (
            chips.way_gated_leakage[rows, target]
            <= chips.constraints.leakage_limit
        )
        saved = chips.passes | rescued
        rescued &= ~chips.passes
        way_cycles = np.where(
            rescued[:, None], BASE_ACCESS_CYCLES, chips.way_cycles
        )
        way_cycles[rows[rescued], target[rescued]] = 0
        return Decisions.of(
            chips, saved, way_cycles, np.where(rescued, target, -1)
        )
