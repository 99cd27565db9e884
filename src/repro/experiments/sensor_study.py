"""Ablation: on-die leakage-sensor fidelity vs YAPD effectiveness.

The paper's deployment story (Section 4.1) allows the leaky way to be
identified in the field with on-die leakage sensors. This study sweeps
the sensor's noise and quantisation and reports (a) how often YAPD's
decision still rescues the chip in truth, and (b) the false-save rate —
chips the sensor-driven flow ships that actually violate the limits.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    population,
)
from repro.schemes import YAPD
from repro.schemes.sensors import LeakageSensor, yield_with_sensor

__all__ = ["run"]

#: (relative noise, quantisation levels) sweep points.
SWEEP = (
    (0.0, 0),
    (0.02, 64),
    (0.05, 32),
    (0.10, 16),
    (0.25, 8),
)


def run(settings: ExperimentSettings) -> ExperimentResult:
    chips = population(settings).chips()
    perfect_saved = int((YAPD().decide(chips).saved & ~chips.passes).sum())

    rows: List[List[object]] = []
    data = {}
    for noise, levels in SWEEP:
        sensor = LeakageSensor(
            relative_noise=noise, quantisation_levels=levels, seed=settings.seed
        )
        believed, actual = yield_with_sensor(chips, YAPD(), sensor)
        false_saves = believed - actual
        rows.append(
            [
                f"{noise:.0%}",
                levels or "-",
                believed,
                actual,
                false_saves,
                f"{actual / perfect_saved:.1%}" if perfect_saved else "-",
            ]
        )
        data[(noise, levels)] = {
            "believed": believed,
            "actual": actual,
            "false_saves": false_saves,
        }
    return ExperimentResult(
        experiment="ablation_sensor",
        title=(
            "Ablation: YAPD driven by an on-die leakage sensor "
            "(paper Section 4.1 deployment; perfect tester saves "
            f"{perfect_saved} chips)"
        ),
        headers=[
            "sensor noise",
            "levels",
            "believed saved",
            "truly saved",
            "false saves",
            "vs perfect",
        ],
        rows=rows,
        notes=[
            "False saves are chips shipped on a wrong leakiest-way call "
            "that still violate the limits — the cost of cheap sensors.",
        ],
        data=data,
    )
