"""Parametric yield modelling (paper Section 5.1).

The paper estimates yield by Monte Carlo: simulate 2000 manufactured
caches, set a delay limit (mean + sigma of the population's access delay,
following Rao et al.) and a leakage limit (3x the population's average
leakage), and classify every chip that violates either as parametric yield
loss. The yield-aware schemes then try to *rescue* failing chips, and the
residual losses are tabulated by the reason of loss.

* :mod:`repro.yieldmodel.constraints` — limit policies (nominal, relaxed,
  strict).
* :mod:`repro.yieldmodel.classify` — the delay -> access-cycles mapping
  and loss classification, as population columns (``ChipColumns``), one
  row per chip.
* :mod:`repro.yieldmodel.analysis` — the population study that regenerates
  Tables 2-5 and Figure 8.
"""

from repro.yieldmodel.constraints import (
    ConstraintPolicy,
    YieldConstraints,
    NOMINAL_POLICY,
    RELAXED_POLICY,
    STRICT_POLICY,
    BASE_ACCESS_CYCLES,
)
from repro.yieldmodel.classify import LossReason, config_key
from repro.yieldmodel.analysis import (
    LossBreakdown,
    PopulationResult,
    YieldStudy,
)
from repro.yieldmodel.statistics import (
    bootstrap_interval,
    loss_reduction_interval,
    scheme_yield_interval,
    wilson_interval,
)

__all__ = [
    "ConstraintPolicy",
    "YieldConstraints",
    "NOMINAL_POLICY",
    "RELAXED_POLICY",
    "STRICT_POLICY",
    "BASE_ACCESS_CYCLES",
    "LossReason",
    "config_key",
    "LossBreakdown",
    "PopulationResult",
    "YieldStudy",
    "wilson_interval",
    "bootstrap_interval",
    "scheme_yield_interval",
    "loss_reduction_interval",
]
