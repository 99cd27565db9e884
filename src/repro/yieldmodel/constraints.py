"""Yield constraints and the policies that derive them.

The paper adopts Rao et al.'s methodology: the *performance limit* is the
population mean plus a multiple of its standard deviation, and the *power
limit* is a multiple of the population's average leakage. Three constraint
policies appear in the evaluation:

=========  =====================  ==================
policy     delay limit            leakage limit
=========  =====================  ==================
nominal    mean + 1.0 sigma       3x average
relaxed    mean + 1.5 sigma       4x average
strict     mean + 0.5 sigma       2x average
=========  =====================  ==================

The delay limit corresponds to the cache's design latency of 4 cycles: a
way whose delay fits within the limit answers in 4 cycles; each additional
quarter of the limit buys one more cycle (a 5-cycle access grants the
array 25% more time). Ways needing 6 or more cycles are beyond what VACA's
single-entry load-bypass buffers can absorb. The mapping runs over whole
populations in :func:`repro.yieldmodel.classify.cycles_for_delays`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

from repro.core.errors import ConfigurationError
from repro.core.validation import require_positive

__all__ = [
    "BASE_ACCESS_CYCLES",
    "YieldConstraints",
    "ConstraintPolicy",
    "NOMINAL_POLICY",
    "RELAXED_POLICY",
    "STRICT_POLICY",
    "PAPER_POLICIES",
]

#: Design access latency of the L1 data cache, in cycles (paper: 4).
BASE_ACCESS_CYCLES = 4


@dataclass(frozen=True)
class YieldConstraints:
    """Concrete delay and leakage limits for a chip population.

    Attributes
    ----------
    delay_limit:
        Maximum access delay (s) that still meets the design's 4-cycle
        latency at the binned frequency.
    leakage_limit:
        Maximum total cache leakage power (W).
    """

    delay_limit: float
    leakage_limit: float

    def __post_init__(self) -> None:
        require_positive(self.delay_limit, "delay_limit")
        require_positive(self.leakage_limit, "leakage_limit")


@dataclass(frozen=True)
class ConstraintPolicy:
    """A rule for deriving :class:`YieldConstraints` from a population.

    Attributes
    ----------
    name:
        Policy label ("nominal", "relaxed", "strict").
    delay_sigma_multiple:
        The delay limit is population mean + this many standard
        deviations.
    leakage_mean_multiple:
        The leakage limit is this multiple of the population's average.
    """

    name: str
    delay_sigma_multiple: float
    leakage_mean_multiple: float

    def __post_init__(self) -> None:
        require_positive(self.delay_sigma_multiple, "delay_sigma_multiple")
        require_positive(self.leakage_mean_multiple, "leakage_mean_multiple")

    def derive(
        self, delays: Sequence[float], leakages: Sequence[float]
    ) -> YieldConstraints:
        """Compute concrete limits from a population's delays and leakages.

        Sums add left to right: ``sum()`` is compensated since Python 3.12.
        """
        if len(delays) < 2 or len(leakages) < 2:
            raise ConfigurationError(
                "need at least two chips to derive population limits"
            )
        n = len(delays)
        mean_delay = reduce(add, delays, 0.0) / n
        var = reduce(add, ((d - mean_delay) ** 2 for d in delays), 0.0) / n
        sigma = math.sqrt(var)
        mean_leak = reduce(add, leakages, 0.0) / len(leakages)
        return YieldConstraints(
            delay_limit=mean_delay + self.delay_sigma_multiple * sigma,
            leakage_limit=self.leakage_mean_multiple * mean_leak,
        )


#: The paper's Section 5.1 policy (Rao-style, adjusted for 45 nm caches).
NOMINAL_POLICY = ConstraintPolicy("nominal", 1.0, 3.0)
#: The relaxed policy of Tables 4 and 5.
RELAXED_POLICY = ConstraintPolicy("relaxed", 1.5, 4.0)
#: The strict policy of Tables 4 and 5.
STRICT_POLICY = ConstraintPolicy("strict", 0.5, 2.0)

#: All policies used in the paper's evaluation.
PAPER_POLICIES = (NOMINAL_POLICY, RELAXED_POLICY, STRICT_POLICY)
