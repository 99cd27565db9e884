"""What the estimators add to the chip job: die-slot transforms and the
batch type.

:func:`transform_die_slot` is the rewrite the chip job
(:func:`repro.engine.chips.chip_shard`) applies to the die-level
standard normals: a stratum restriction of the threshold-voltage column
and an importance-sampling mean shift, both elementwise. A
:class:`ShardData` is what the job returns and the estimators read.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.variation.parameters import PARAMETER_NAMES
from repro.yieldmodel.estimators.normal import ndtri, normal_cdf

__all__ = [
    "NUM_DIE_PARAMS",
    "STRATUM_PARAM",
    "ShardData",
    "transform_die_slot",
]

#: Size of the die-level z slot (the five Table 1 parameters).
NUM_DIE_PARAMS = len(PARAMETER_NAMES)

#: Die-slot column the stratified estimator partitions: the threshold
#: voltage, the parameter both delay and leakage are most sensitive to.
STRATUM_PARAM = PARAMETER_NAMES.index("vt")

#: Keep the stratum-restricted uniform strictly inside (0, 1): a raw
#: draw extreme enough for Phi(z) to round to exactly 0 or 1 would
#: otherwise map onto a stratum boundary (and ndtri's domain edge).
_U_EPS = 1e-12


class ShardData(NamedTuple):
    """One batch of chips: circuit columns per architecture + die-slot z.

    ``die_z[i]`` is chip ``i``'s die-slot standard-normal vector *after*
    any transform, i.e. the z the chip was actually manufactured from,
    which is what the importance-sampling likelihood ratio needs.
    """

    regular: CircuitColumns
    horizontal: CircuitColumns
    die_z: np.ndarray  # (chips, 5) float64, the die-slot normals

    @classmethod
    def join(cls, parts: Sequence["ShardData"]) -> "ShardData":
        """Batches (or shards) in chip order as one batch."""
        return cls(
            CircuitColumns.concatenate([part.regular for part in parts]),
            CircuitColumns.concatenate([part.horizontal for part in parts]),
            np.concatenate([part.die_z for part in parts]),
        )

    @property
    def count(self) -> int:
        return len(self.regular)


def _apply_stratum(die_z: np.ndarray, index: int, strata: int) -> None:
    """Restrict the stratum column to equiprobable stratum ``index``.

    The measure-preserving transform ``z' = ndtri((h + Phi(z)) / K)``
    maps a standard-normal draw onto the exact conditional distribution
    of stratum ``h`` of ``K`` — applied per element, in chip order, so
    shard layout cannot change a value.
    """
    if not 0 <= index < strata:
        raise ConfigurationError(
            f"stratum index {index} out of range for {strata} strata"
        )
    column = die_z[:, STRATUM_PARAM]
    for i in range(column.shape[0]):
        u = normal_cdf(float(column[i]))
        u = min(max(u, _U_EPS), 1.0 - _U_EPS)
        column[i] = ndtri((index + u) / strata)


def transform_die_slot(
    die_z: np.ndarray,
    shift: Optional[Sequence[float]] = None,
    stratum: Optional[Tuple[int, int]] = None,
) -> None:
    """Rewrite the ``(chips, 5)`` die-slot normals in place.

    ``stratum`` (``(index, strata)``) restricts the stratum column to one
    equiprobable stratum; ``shift`` (the IS mean tilt, one component per
    die parameter) is then added to every row. Neither given leaves the
    slot as drawn.
    """
    if shift is not None and len(shift) != NUM_DIE_PARAMS:
        raise ConfigurationError(
            f"shift must have {NUM_DIE_PARAMS} components, got {len(shift)}"
        )
    if stratum is not None:
        _apply_stratum(die_z, *stratum)
    if shift is not None:
        die_z += np.asarray(shift, dtype=float)
