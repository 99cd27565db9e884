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

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.schemes.base import Decisions, RescueOutcome, Scheme
from repro.schemes.hybrid import Hybrid
from repro.yieldmodel.classify import ChipCase, ChipColumns, VACA_MAX_CYCLES
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["AdaptiveHybrid", "TableEstimator"]

#: An estimator maps (way_cycles with None for disabled ways) to a
#: predicted fractional CPI degradation for the target workload.
Estimator = Callable[[Tuple[Optional[int], ...]], float]


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
        self._fixed = Hybrid()

    def decide(self, chips: ChipColumns) -> Decisions:
        """A per-chip estimator call on each failing row, with the row's
        leakage readings (measured ones too)."""
        saved = chips.passes.copy()
        way_cycles = chips.way_cycles.copy()
        disabled_way = np.full(chips.count, -1)
        for index in np.flatnonzero(~chips.passes).tolist():
            outcome = self._choose(
                chips.case(index),
                int(chips.leakiest_way[index]),
                chips.way_gated_leakage[index].tolist(),
            )
            if outcome.saved:
                saved[index] = True
                way_cycles[index] = [c or 0 for c in outcome.way_cycles]
                if outcome.disabled_way is not None:
                    disabled_way[index] = outcome.disabled_way
        return Decisions.of(chips, saved, way_cycles, disabled_way)

    def _candidates(self, case: ChipCase, leakiest: int, gated: List[float]):
        """All single-disable-or-none configurations that meet constraints.

        Only *sensible* disables are considered: a slow way, or the
        leakiest way when the chip violates the power limit — never a
        healthy way. ``leakiest`` and ``gated`` are the chip's leakage
        readings (``max_leakage_way`` and ``leakage_after_disabling_way``
        of every way).
        """
        # Option A: no power-down (pure VACA behaviour).
        if not case.leakage_violation and max(case.way_cycles) <= VACA_MAX_CYCLES:
            yield None, case.way_cycles
        # Option B: disable exactly one offending way.
        candidates = {
            w
            for w, cycles in enumerate(case.way_cycles)
            if cycles > BASE_ACCESS_CYCLES
        }
        if case.leakage_violation:
            candidates.add(leakiest)
        for way in sorted(candidates):
            cycles_ok = all(
                case.way_cycles[w] <= VACA_MAX_CYCLES
                for w in range(case.circuit.num_ways)
                if w != way
            )
            leak_ok = case.constraints.meets_leakage(gated[way])
            if cycles_ok and leak_ok:
                yield way, tuple(
                    None if w == way else case.way_cycles[w]
                    for w in range(case.circuit.num_ways)
                )

    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)
        return self._choose(
            case,
            case.max_leakage_way(),
            [
                case.leakage_after_disabling_way(way)
                for way in range(case.circuit.num_ways)
            ],
        )

    def _choose(
        self, case: ChipCase, leakiest: int, gated: List[float]
    ) -> RescueOutcome:
        """The cheapest feasible option for the failing ``case``."""
        best = None
        best_cost = float("inf")
        for disabled_way, way_cycles in self._candidates(
            case, leakiest, gated
        ):
            cost = self.estimator(way_cycles)
            if cost < best_cost:
                best, best_cost = (disabled_way, way_cycles), cost
        if best is None:
            return self._lost(case, "no feasible single power-down option")

        disabled_way, way_cycles = best
        note = (
            "kept all ways (VACA mode)"
            if disabled_way is None
            else f"disabled way {disabled_way}"
        )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            disabled_way=disabled_way,
            way_cycles=way_cycles,
            note=f"{note}; predicted degradation {best_cost:.2%}",
        )
