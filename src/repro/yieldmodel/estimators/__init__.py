"""Smart yield estimators: same numbers as brute-force MC, fewer chips.

Yield estimation is rare-event estimation — the paper's 2000-chip
brute-force Monte Carlo spends nearly all of its samples on chips far
from the delay/leakage limit surfaces. This package provides estimators
that reach the same yield figures at a fraction of the samples:

* ``fixed`` — the legacy fixed-N estimator (Wilson intervals over the
  full population), kept as the reference everything else is compared
  against.
* ``adaptive`` — sequential batches through the columnar fast path,
  stopping as soon as the Wilson CI half-width of every tracked yield
  figure falls below a target.
* ``stratified`` — the die-offset parameter space partitioned into
  equiprobable strata, sized by pilot-run variance (Neyman allocation),
  recombined with exact 1/K weights.
* ``is`` — importance sampling: the die-level process-parameter
  distribution is mean-shifted toward the limit surfaces (tilt computed
  from a pilot batch's near-limit chips) and reweighted by exact
  likelihood ratios computed on the raw standard-normal columns.

Every estimator takes the chip dispatcher, the engine's
:class:`repro.engine.chips.BatchRunner`, as its ``runner`` argument; the
package imports no engine module.

Everything is deterministic per ``(seed, spec)`` at any worker count:
each chip's RNG comes from ``spawn(seed, f"{tag}-{chip_id}")`` alone, so
shard layout never changes a single draw, and every stopping/allocation
decision is a pure function of the drawn data.
"""

from repro.yieldmodel.estimators.core import (
    ESTIMATOR_KINDS,
    adaptive_chips,
    estimate_adaptive,
    estimate_fixed,
    estimate_is,
    estimate_stratified,
    neyman_allocation,
    run_estimate,
)
from repro.yieldmodel.estimators.normal import ndtri, normal_cdf
from repro.yieldmodel.estimators.results import EstimateReport, YieldEstimate
from repro.yieldmodel.estimators.spec import EstimatorSpec

__all__ = [
    "ESTIMATOR_KINDS",
    "EstimateReport",
    "EstimatorSpec",
    "YieldEstimate",
    "adaptive_chips",
    "estimate_adaptive",
    "estimate_fixed",
    "estimate_is",
    "estimate_stratified",
    "ndtri",
    "neyman_allocation",
    "normal_cdf",
    "run_estimate",
]
