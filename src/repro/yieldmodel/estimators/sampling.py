"""Shard-level sampling for the estimator layer.

:func:`sample_shard` is the worker body behind
:func:`repro.engine.workers.estimate_shard`: it draws chips
``[start, stop)`` of one tagged stream through the columnar population
sampler, optionally transforms the die-level standard-normal slot
(stratum restriction, importance-sampling mean shift), evaluates both
architectures, and returns their circuit columns plus the transformed
die-slot z values the parent needs for exact likelihood ratios.

Determinism contract: chip ``i`` of stream ``tag`` always draws from
``spawn(seed, f"{tag}-{i}")`` (decoded with the rest of the shard by
:meth:`ColumnarPopulationSampler.draw`), and both transforms are
elementwise —
so any sharding of an id range concatenates bit-identically, at any
worker count. The ``"chip"`` tag reproduces exactly the chips of the
reference fixed-N population (the per-chip sampler's own spawn keys),
which is what makes pilot batches a strict prefix of the brute-force
population. Sampling and evaluation are the population path's own
columnar sampler and :func:`evaluate_population_pair`; the differential
battery holds both to the scalar and composed oracles in
``tests/oracles/``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.cache_model import CacheCircuitModel
from repro.circuit.columnar import CircuitColumns, evaluate_population_pair
from repro.circuit.organization import PAPER_ORGANIZATION
from repro.circuit.technology import TECH45
from repro.core.errors import ConfigurationError
from repro.variation.columnar import ColumnarPopulationSampler
from repro.variation.parameters import PARAMETER_NAMES
from repro.variation.sampling import CacheVariationSampler
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
) -> Tuple[CircuitColumns, CircuitColumns, List[Tuple[float, ...]]]:
    """Draw, transform and evaluate chips ``[start, stop)`` of one stream.

    Returns ``(regular, horizontal, die_z)``: both architectures' circuit
    columns, and ``die_z[i]``, chip ``start + i``'s die-slot
    standard-normal vector *after* any transform — i.e. the z the chip
    was actually manufactured from, which is what the
    importance-sampling likelihood ratio needs.
    """
    if not 0 <= start <= stop:
        raise ConfigurationError(f"invalid chip range [{start}, {stop})")
    sampler = CacheVariationSampler()
    columnar = ColumnarPopulationSampler(sampler)
    if not columnar._die_drawn:
        raise ConfigurationError(
            "yield estimators require die-level variation "
            "(inter_die factor > 0)"
        )
    count = stop - start
    labels = [f"{tag}-{chip_id}" for chip_id in range(start, stop)]
    raw = columnar.draw(seed, labels)
    die_z = raw.head_z[:, :NUM_DIE_PARAMS]
    if stratum is not None:
        _apply_stratum(die_z, stratum[0], stratum[1])
    if shift is not None:
        if len(shift) != NUM_DIE_PARAMS:
            raise ConfigurationError(
                f"shift must have {NUM_DIE_PARAMS} components, "
                f"got {len(shift)}"
            )
        die_z += np.asarray(shift, dtype=float)
    population = columnar.finalize(list(range(start, stop)), raw)
    z_rows = [
        tuple(float(v) for v in die_z[i]) for i in range(count)
    ]
    regular, horizontal = evaluate_population_pair(
        CacheCircuitModel(tech=TECH45, org=PAPER_ORGANIZATION, hyapd=False),
        CacheCircuitModel(tech=TECH45, org=PAPER_ORGANIZATION, hyapd=True),
        population,
    )
    return regular, horizontal, z_rows
