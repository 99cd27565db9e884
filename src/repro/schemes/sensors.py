"""On-die measurement models (paper Section 4.1's deployment story).

The paper notes that the offending ways can be identified "during memory
testing right after fabrication and/or on the field using leakage power
sensors" (Kim et al. [20]). Post-fabrication testers see true values;
on-die sensors do not — they quantise and drift. This module models that
measurement layer so the deployment question can be studied: *how much of
YAPD's benefit survives an imperfect sensor?*

:meth:`LeakageSensor.measure` reads every chip's ways at once.
:func:`measured_failing` gives a population's failing chips as
:class:`~repro.yieldmodel.classify.ChipColumns` whose leakage readings —
which way is leakiest, what a way's power-down leaves — are the
measured ones; :func:`yield_with_sensor` decides them in one call and
judges every believed save on the true columns. The gap between the two
counts is the sensor's cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.circuit.columnar import left_sum
from repro.core.rng import StreamBlock, normals_at, stream_states
from repro.core.validation import require_non_negative
from repro.yieldmodel.classify import ChipColumns

__all__ = ["LeakageSensor", "measured_failing", "yield_with_sensor"]


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

    def measure(
        self, chip_ids: Sequence[int], way_leakages: np.ndarray
    ) -> np.ndarray:
        """Measured ``(chips, ways)`` leakage, deterministic per chip.

        Chip ``c``'s way ``w`` reads ``true * exp(noise)``, where the
        noise is the ``w``-th ``normal(0.0, relative_noise)`` draw of
        stream ``spawn(seed, f"sensor-{c}")``; with quantisation, each
        reading rounds (half to even) to a multiple of the chip's largest
        reading over the levels.
        """
        count, ways = way_leakages.shape
        labels = [f"sensor-{chip_id}" for chip_id in chip_ids]
        block = StreamBlock(stream_states(self.seed, labels), ways + 2)
        rows = np.arange(count)
        pos = np.zeros(count, dtype=np.int64)
        noise = np.empty((count, ways))
        for way in range(ways):
            z, pos = normals_at(block, rows, pos)
            noise[:, way] = 0.0 + self.relative_noise * z
        readings = way_leakages * np.exp(noise)
        if not self.quantisation_levels:
            return readings
        step = readings.max(axis=1) / self.quantisation_levels
        step[step == 0.0] = 1.0
        return np.rint(readings / step[:, None]) * step[:, None]


def measured_failing(
    chips: ChipColumns, sensor: LeakageSensor
) -> Tuple[np.ndarray, ChipColumns]:
    """The failing rows of ``chips`` and their columns as ``sensor``
    reads them: true circuits and limits, measured leakage readings.

    Delays are the true ones (the tester's clock sweep is precise); a
    measured total adds the readings left to right.
    """
    failing = np.flatnonzero(~chips.passes)
    circuits = chips.circuits.take(failing)
    readings = sensor.measure(circuits.chip_ids, circuits.way_leakages)
    return failing, ChipColumns(
        circuits,
        chips.constraints,
        way_gated_leakage=left_sum(readings, 1)[:, None] - readings,
        leakiest_way=readings.argmax(axis=1),
    )


def yield_with_sensor(
    chips: ChipColumns, scheme, sensor: LeakageSensor
) -> Tuple[int, int]:
    """Rescue rate of ``scheme`` when decisions go through ``sensor``.

    Returns ``(decisions_saved, actually_saved)`` over the failing chips
    of ``chips``: chips the scheme *believed* it saved, deciding on
    :func:`measured_failing`, and the subset whose true leakage and
    delay meet the limits after the chosen action.

    Only the gated-way readings are measured: every scheme checks its
    action's delays, band leakage and leakage verdict on the true
    values. So a believed save is actual unless it gates off a way
    whose true gated leakage exceeds the limit.
    """
    failing, measured = measured_failing(chips, sensor)
    decided = scheme.decide(measured)
    saved = np.flatnonzero(decided.saved)
    way = decided.disabled_way[saved]
    true_gated = chips.way_gated_leakage[failing[saved], np.maximum(way, 0)]
    actual = (way < 0) | (true_gated <= chips.constraints.leakage_limit)
    return int(saved.size), int(np.count_nonzero(actual))
