"""On-die measurement models (paper Section 4.1's deployment story).

The paper notes that the offending ways can be identified "during memory
testing right after fabrication and/or on the field using leakage power
sensors" (Kim et al. [20]). Post-fabrication testers see true values;
on-die sensors do not — they quantise and drift. This module models that
measurement layer so the deployment question can be studied: *how much of
YAPD's benefit survives an imperfect sensor?*

:class:`MeasuredChipCase` wraps a true :class:`ChipCase` with a sensor:
the schemes (whose decisions read the case's facts through
:class:`~repro.yieldmodel.classify.ChipColumns`) then decide on measured
values while the *verdict* — does the rescued chip actually meet the
limits — is always evaluated on the truth. The
``sensor_error`` analysis in :func:`yield_with_sensor` reports how the
rescue rate degrades with sensor noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.core.rng import spawn
from repro.core.validation import require_non_negative
from repro.yieldmodel.classify import ChipCase, ChipColumns

__all__ = ["LeakageSensor", "MeasuredChipCase", "yield_with_sensor"]


@dataclass(frozen=True)
class LeakageSensor:
    """A noisy, quantised per-way leakage sensor.

    Parameters
    ----------
    relative_noise:
        Standard deviation of the multiplicative measurement error.
    quantisation_levels:
        Number of distinct output codes across the measured range
        (Kim et al.'s sensor digitises the leakage current); 0 disables
        quantisation.
    seed:
        Sensor-instance seed (manufacturing calibration lottery).
    """

    relative_noise: float = 0.05
    quantisation_levels: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        require_non_negative(self.relative_noise, "relative_noise")
        require_non_negative(self.quantisation_levels, "quantisation_levels")

    def measure_ways(
        self, chip_id: int, true_values: Tuple[float, ...]
    ) -> Tuple[float, ...]:
        """Measured per-way leakage for one chip (deterministic per chip)."""
        rng = spawn(self.seed, f"sensor-{chip_id}")
        noisy = [
            value * float(np.exp(rng.normal(0.0, self.relative_noise)))
            for value in true_values
        ]
        if not self.quantisation_levels:
            return tuple(noisy)
        step = max(noisy) / self.quantisation_levels or 1.0
        return tuple(round(value / step) * step for value in noisy)


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
    Each chip shape and set of limits is decided in one call.
    """
    groups: Dict[tuple, List[MeasuredChipCase]] = {}
    for case in cases:
        if case.passes:
            continue
        circuit = case.circuit
        key = (
            circuit.num_ways, circuit.num_bands, circuit.hyapd,
            case.constraints,
        )
        groups.setdefault(key, []).append(MeasuredChipCase(case, sensor))
    believed = 0
    actual = 0
    for measured in groups.values():
        decided = scheme.decide(ChipColumns.of_cases(measured))
        for index in np.flatnonzero(decided.saved).tolist():
            believed += 1
            case = measured[index].truth
            disabled_way = int(decided.disabled_way[index])
            if disabled_way >= 0:
                true_leak = case.leakage_after_disabling_way(disabled_way)
                delay_ok = all(
                    case.constraints.meets_delay(way.delay)
                    for way in case.circuit.ways
                    if way.way != disabled_way
                )
            else:
                true_leak = case.total_leakage
                enabled = [c for c in decided.way_cycles[index].tolist() if c]
                delay_ok = max(case.way_cycles) <= max(enabled, default=4)
            if delay_ok and case.constraints.meets_leakage(true_leak):
                actual += 1
    return believed, actual
