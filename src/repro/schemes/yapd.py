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

from repro.schemes.base import ColumnarScheme, Decisions
from repro.yieldmodel.classify import ChipColumns
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["YAPD"]


class YAPD(ColumnarScheme):
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

    def _note(self, chips: ChipColumns, decided: Decisions) -> str:
        if decided.saved[0]:
            return f"disabled way {int(decided.disabled_way[0])}"
        violators = int(chips.delay_violations[0].sum())
        if violators > 1:
            return f"{violators} ways violate delay; only one may be disabled"
        if chips.leakage_violation[0]:
            return "leakage remains above limit after disabling one way"
        return "constraints unmet after disabling one way"
