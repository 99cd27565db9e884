"""Adaptive Hybrid (extension beyond the paper's fixed policy).

Section 4.4 observes that the Hybrid cache "has many options to
implement": for a 3-1-0 chip it can disable the 5-cycle way (behaving like
YAPD — cheaper for computation-bound workloads) or keep it enabled at 5
cycles (behaving like VACA — cheaper for memory-intensive workloads), and
then fixes the choice ("keep ways on as long as possible"). This module
implements the adaptive variant the paper sketches but does not evaluate:
given a per-configuration performance estimate for each option, pick the
one with the smaller predicted degradation for the target workload.

The estimator is pluggable; :class:`TableEstimator` wraps measured
degradations (e.g. this reproduction's Table 6 output, or live pipeline
simulations via :mod:`repro.uarch`).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.schemes.base import Decisions, Scheme
from repro.yieldmodel.classify import ChipColumns, VACA_MAX_CYCLES
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["AdaptiveHybrid", "TableEstimator"]

#: An estimator maps (way_cycles with None for disabled ways) to a
#: predicted fractional CPI degradation for the target workload.
Estimator = Callable[[Tuple[Optional[int], ...]], float]

#: One option for a failing chip: the way it powers down (-1 for none)
#: and the way cycles it ships, with None for that way.
Option = Tuple[int, Tuple[Optional[int], ...]]


class TableEstimator:
    """Estimator backed by a {configuration description: degradation} table.

    The key is the tuple of post-rescue way cycles with ``None`` for
    disabled ways, sorted so that physically equivalent configurations
    coincide (the pipeline cannot tell way 1 from way 3).
    """

    def __init__(self, table, default: float = 0.0) -> None:
        self._table = {self.canonical(k): v for k, v in table.items()}
        self._default = default

    @staticmethod
    def canonical(
        way_cycles: Tuple[Optional[int], ...]
    ) -> Tuple[Optional[int], ...]:
        """Sort cycles (disabled ways last) to a canonical key."""
        return tuple(
            sorted(way_cycles, key=lambda c: (c is None, c if c is not None else 0))
        )

    def __call__(self, way_cycles: Tuple[Optional[int], ...]) -> float:
        return self._table.get(self.canonical(way_cycles), self._default)


class AdaptiveHybrid(Scheme):
    """Hybrid that picks keep-slow vs disable per predicted degradation.

    Parameters
    ----------
    estimator:
        Predicts fractional CPI degradation of a candidate configuration
        for the target workload.
    """

    name = "Adaptive-Hybrid"

    def __init__(self, estimator: Estimator) -> None:
        self.estimator = estimator

    def decide(self, chips: ChipColumns) -> Decisions:
        """The cheapest feasible option of each failing row, read with
        the row's leakage readings (measured ones too)."""
        saved = chips.passes.copy()
        way_cycles = chips.way_cycles.copy()
        disabled_way = np.full(chips.count, -1)
        gated_ok = chips.way_gated_leakage <= chips.constraints.leakage_limit
        for index in np.flatnonzero(~chips.passes).tolist():
            best = self._cheapest(
                self._options(
                    chips.way_cycles[index].tolist(),
                    bool(chips.leakage_violation[index]),
                    int(chips.leakiest_way[index]),
                    gated_ok[index].tolist(),
                )
            )
            if best is not None:
                way, cycles = best
                saved[index] = True
                disabled_way[index] = way
                way_cycles[index] = [c or 0 for c in cycles]
        return Decisions.of(chips, saved, way_cycles, disabled_way)

    @staticmethod
    def _options(
        cycles: List[int], leaky: bool, leakiest: int, gated_ok: List[bool]
    ) -> Iterator[Option]:
        """Every single-power-down-or-none option that meets constraints.

        Only *sensible* disables are considered: a slow way, or the
        leakiest way when the chip violates the power limit — never a
        healthy way. ``gated_ok[w]``: gating way ``w`` off leaves the
        leakage within the limit.
        """
        # Option A: no power-down (pure VACA behaviour).
        if not leaky and max(cycles) <= VACA_MAX_CYCLES:
            yield -1, tuple(cycles)
        # Option B: disable exactly one offending way.
        candidates = {
            w for w, c in enumerate(cycles) if c > BASE_ACCESS_CYCLES
        }
        if leaky:
            candidates.add(leakiest)
        for way in sorted(candidates):
            others_ok = all(
                c <= VACA_MAX_CYCLES for w, c in enumerate(cycles) if w != way
            )
            if others_ok and gated_ok[way]:
                yield way, tuple(
                    None if w == way else c for w, c in enumerate(cycles)
                )

    def _cheapest(self, options: Iterator[Option]) -> Optional[Option]:
        """The first option with strictly the lowest predicted cost."""
        best = None
        best_cost = float("inf")
        for option in options:
            cost = self.estimator(option[1])
            if cost < best_cost:
                best, best_cost = option, cost
        return best
