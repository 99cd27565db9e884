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
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

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
    """
    failing, measured = measured_failing(chips, sensor)
    decided = scheme.decide(measured)
    saved = np.flatnonzero(decided.saved)
    rows = failing[saved]
    disabled = decided.disabled_way[saved]
    gated = disabled >= 0
    ways = np.arange(chips.circuits.num_ways)
    # A powered-down way: the other ways must meet the delay limit. No
    # power-down: no way may need more cycles than the slowest way the
    # decision keeps on (4 when it keeps none).
    others_fast = ~(
        chips.delay_violations[rows] & (ways != disabled[:, None])
    ).any(axis=1)
    cycles = decided.way_cycles[saved]
    kept = np.where(
        (cycles != 0).any(axis=1), cycles.max(axis=1), BASE_ACCESS_CYCLES
    )
    delay_ok = np.where(
        gated, others_fast, chips.way_cycles[rows].max(axis=1) <= kept
    )
    true_leakage = np.where(
        gated,
        chips.way_gated_leakage[rows, np.maximum(disabled, 0)],
        chips.total_leakage[rows],
    )
    leakage_ok = true_leakage <= chips.constraints.leakage_limit
    return int(saved.size), int(np.count_nonzero(delay_ok & leakage_ok))
