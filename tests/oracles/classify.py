"""The per-chip classification before its leakage facts were cached.

``ChipCase`` is the original class verbatim: it recomputes
``leakage_violation`` and ``passes`` from the circuit on every read.
``way_leakages`` and ``total_leakage`` are added as uncached properties
over the circuit, because the schemes now read them from the case.
``MeasuredChipCase`` and ``yield_with_sensor`` are the original sensor
layer, built on this ``ChipCase``. Never imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.circuit.cache_model import CacheCircuitResult
from repro.schemes.sensors import LeakageSensor
from repro.yieldmodel.classify import LossReason, config_key
from repro.yieldmodel.constraints import YieldConstraints

__all__ = ["ChipCase", "MeasuredChipCase", "yield_with_sensor"]


@dataclass(frozen=True)
class ChipCase:
    """One manufactured chip held against a set of yield constraints."""

    circuit: CacheCircuitResult
    constraints: YieldConstraints

    # ------------------------------------------------------------------
    # uncached facts the schemes read (not on the original class)
    # ------------------------------------------------------------------
    @property
    def way_leakages(self) -> Tuple[float, ...]:
        return self.circuit.way_leakages

    @property
    def total_leakage(self) -> float:
        return self.circuit.total_leakage

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    @cached_property
    def way_cycles(self) -> Tuple[int, ...]:
        """Access cycles each way needs at the binned frequency."""
        return tuple(
            self.constraints.cycles_for_delay(d) for d in self.circuit.way_delays
        )

    @cached_property
    def delay_violating_ways(self) -> Tuple[int, ...]:
        """Indices of ways that miss the 4-cycle design latency."""
        return tuple(
            w
            for w, d in enumerate(self.circuit.way_delays)
            if not self.constraints.meets_delay(d)
        )

    @property
    def leakage_violation(self) -> bool:
        """True when total leakage exceeds the power limit."""
        return not self.constraints.meets_leakage(self.circuit.total_leakage)

    @property
    def delay_violation(self) -> bool:
        """True when any way misses the 4-cycle latency."""
        return bool(self.delay_violating_ways)

    @property
    def passes(self) -> bool:
        """True when the chip needs no yield-aware scheme at all."""
        return not (self.leakage_violation or self.delay_violation)

    @cached_property
    def loss_reason(self) -> LossReason:
        """The paper's loss bucket for this chip."""
        if self.leakage_violation:
            return LossReason.LEAKAGE
        if self.delay_violation:
            return LossReason.delay(len(self.delay_violating_ways))
        return LossReason.NONE

    @cached_property
    def configuration(self) -> str:
        """Table 6 way-latency configuration key (e.g. ``"3-1-0"``)."""
        return config_key(self.way_cycles)

    # ------------------------------------------------------------------
    # helpers the schemes use
    # ------------------------------------------------------------------
    def leakage_after_disabling_way(self, way: int) -> float:
        """Total leakage (W) with one way fully gated off."""
        return self.circuit.total_leakage - self.circuit.ways[way].leakage

    def max_leakage_way(self) -> int:
        """The way with the highest total leakage (YAPD's disable choice)."""
        leakages = self.circuit.way_leakages
        return max(range(len(leakages)), key=lambda w: leakages[w])

    def way_cycles_without_band(self, band: int) -> Tuple[int, ...]:
        """Per-way cycles if horizontal band ``band`` were powered down."""
        return tuple(
            self.constraints.cycles_for_delay(way.delay_without_band(band))
            for way in self.circuit.ways
        )


class MeasuredChipCase(ChipCase):
    """A chip case whose *leakage readings* come through a sensor.

    Delay classification is unchanged (speed paths are characterised by
    the tester's clock sweep, which is precise); only the leakage-driven
    decisions — which way is leakiest, whether a rescue's residual
    leakage passes — are taken on measured values. The true case remains
    available as ``truth`` for verdicts.
    """

    def __init__(self, truth: ChipCase, sensor: LeakageSensor) -> None:
        super().__init__(circuit=truth.circuit, constraints=truth.constraints)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "sensor", sensor)

    @cached_property
    def measured_way_leakage(self) -> Tuple[float, ...]:
        return self.sensor.measure_ways(
            self.circuit.chip_id, self.circuit.way_leakages
        )

    def max_leakage_way(self) -> int:
        measured = self.measured_way_leakage
        return max(range(len(measured)), key=lambda w: measured[w])

    def leakage_after_disabling_way(self, way: int) -> float:
        return sum(self.measured_way_leakage) - self.measured_way_leakage[way]


def yield_with_sensor(cases, scheme, sensor: LeakageSensor):
    """Rescue rate of ``scheme`` when decisions go through ``sensor``.

    Returns ``(decisions_saved, actually_saved)``: chips the scheme
    *believed* it saved, and the subset whose true leakage and delay meet
    the limits after the chosen action. The gap is the sensor's cost.
    """
    believed = 0
    actual = 0
    for case in cases:
        if case.passes:
            continue
        measured = MeasuredChipCase(case, sensor)
        outcome = scheme.rescue(measured)
        if not outcome.saved:
            continue
        believed += 1
        if outcome.disabled_way is not None:
            true_leak = case.leakage_after_disabling_way(outcome.disabled_way)
            delay_ok = all(
                case.constraints.meets_delay(way.delay)
                for way in case.circuit.ways
                if way.way != outcome.disabled_way
            )
        else:
            true_leak = case.circuit.total_leakage
            delay_ok = max(case.way_cycles) <= (outcome.max_cycles or 4)
        if delay_ok and case.constraints.meets_leakage(true_leak):
            actual += 1
    return believed, actual
