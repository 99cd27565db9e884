"""Shard-level sampling: the body of the one chip job.

:func:`sample_shard` is the worker body behind
:func:`repro.engine.workers.chip_shard`, the job every population and
every estimator batch runs: it draws chips ``[start, stop)`` of one
tagged stream through
:meth:`~repro.variation.columnar.ColumnarPopulationSampler.sample_range`,
optionally transforms the die-level standard-normal slot there (stratum
restriction, importance-sampling mean shift), evaluates both
architectures with :meth:`~repro.yieldmodel.analysis.YieldStudy.evaluate`
(the sampler and circuit models are a default ``YieldStudy``'s), and
returns their circuit columns plus the die-slot z values the parent
needs for exact likelihood ratios.

Determinism contract: chip ``i`` of stream ``tag`` always draws from
``spawn(seed, f"{tag}-{i}")``, and both transforms are elementwise, so
any sharding of an id range concatenates bit-identically, at any worker
count. The ``"chip"`` tag is the reference population's stream, which
is what makes pilot batches and adaptive populations strict prefixes of
the brute-force population. The differential battery holds sampling and
evaluation to the scalar and composed oracles in ``tests/oracles/``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.variation.columnar import ColumnarPopulationSampler
from repro.variation.parameters import PARAMETER_NAMES
from repro.yieldmodel.analysis import YieldStudy
from repro.yieldmodel.estimators.normal import ndtri, normal_cdf

__all__ = ["NUM_DIE_PARAMS", "STRATUM_PARAM", "sample_shard"]

#: Size of the die-level z slot (the five Table 1 parameters).
NUM_DIE_PARAMS = len(PARAMETER_NAMES)

#: Die-slot column the stratified estimator partitions: the threshold
#: voltage, the parameter both delay and leakage are most sensitive to.
STRATUM_PARAM = PARAMETER_NAMES.index("vt")

#: Keep the stratum-restricted uniform strictly inside (0, 1): a raw
#: draw extreme enough for Phi(z) to round to exactly 0 or 1 would
#: otherwise map onto a stratum boundary (and ndtri's domain edge).
_U_EPS = 1e-12


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


def sample_shard(
    seed: int,
    tag: str,
    start: int,
    stop: int,
    shift: Optional[Sequence[float]] = None,
    stratum: Optional[Tuple[int, int]] = None,
) -> Tuple[CircuitColumns, CircuitColumns, np.ndarray]:
    """Draw, transform and evaluate chips ``[start, stop)`` of one stream.

    Returns ``(regular, horizontal, die_z)``: both architectures' circuit
    columns, and ``die_z[i]``, chip ``start + i``'s die-slot
    standard-normal vector *after* any transform — i.e. the z the chip
    was actually manufactured from, which is what the
    importance-sampling likelihood ratio needs.
    """
    if shift is not None and len(shift) != NUM_DIE_PARAMS:
        raise ConfigurationError(
            f"shift must have {NUM_DIE_PARAMS} components, got {len(shift)}"
        )
    kept = []

    def rewrite(die_z: np.ndarray) -> None:
        if stratum is not None:
            _apply_stratum(die_z, stratum[0], stratum[1])
        if shift is not None:
            die_z += np.asarray(shift, dtype=float)
        kept.append(die_z.copy())

    # The study's own models, so a population's chips match the
    # live-chip key of the YieldStudy they are filed under.
    study = YieldStudy(seed=seed)
    population = ColumnarPopulationSampler(study.sampler).sample_range(
        seed, start, stop, tag=tag, die_z=rewrite
    )
    regular, horizontal = study.evaluate(population)
    return regular, horizontal, kept[0]
