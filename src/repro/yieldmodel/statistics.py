"""Statistical error bars for Monte Carlo yield estimates.

The paper reports point estimates over 2000 simulated chips. Any such
estimate carries sampling error; this module quantifies it two ways:

* :func:`wilson_interval` — the analytic Wilson score interval for a
  binomial proportion (a chip passes or it does not), which behaves well
  near 0 and 1 where yields live.
* :func:`bootstrap_interval` — a nonparametric percentile bootstrap over
  chips, usable for any per-chip statistic (e.g. loss *reduction*, which
  is a ratio of two correlated counts and has no closed form).

:func:`scheme_yield_interval` and :func:`loss_reduction_interval` apply
them to a population's scheme decisions.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import spawn
from repro.core.validation import require_in_range, require_positive

__all__ = [
    "z_score",
    "wilson_interval",
    "bootstrap_replicates",
    "bootstrap_interval",
    "scheme_yield_interval",
    "loss_reduction_interval",
]

#: z-scores for the supported confidence levels.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_score(confidence: float) -> float:
    """Two-sided normal z-score for a supported confidence level.

    Shared by :func:`wilson_interval` and the estimator layer's
    normal-approximation intervals, so both always quote the same
    critical value for the same confidence.
    """
    try:
        return _Z[confidence]
    except KeyError:
        raise ConfigurationError(
            f"confidence must be one of {sorted(_Z)}, got {confidence}"
        ) from None


def wilson_interval(
    successes: int, total: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ConfigurationError("total must be > 0")
    if not 0 <= successes <= total:
        raise ConfigurationError("successes must be within [0, total]")
    z = z_score(confidence)
    p = successes / total
    denom = 1 + z**2 / total
    centre = (p + z**2 / (2 * total)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / total + z**2 / (4 * total**2))
        / denom
    )
    low = max(0.0, centre - half)
    high = min(1.0, centre + half)
    # Pin the exact endpoints (floating point can land a hair inside and
    # exclude the point estimate at p = 0 or 1).
    if successes == 0:
        low = 0.0
    if successes == total:
        high = 1.0
    return (low, high)


def bootstrap_replicates(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    resamples: int = 2000,
    seed: int = 0,
    start: int = 0,
) -> np.ndarray:
    """``resamples`` bootstrap replicates of ``statistic`` over ``values``.

    Shardable: replicate ``i`` draws from an RNG derived from
    ``(seed, start + i)`` alone, so disjoint ``(start, resamples)`` chunks
    computed anywhere concatenate to the exact serial replicate vector.
    """
    if not len(values):
        raise ConfigurationError("values must be non-empty")
    require_positive(resamples, "resamples")
    if start < 0:
        raise ConfigurationError(f"start must be >= 0, got {start}")
    data = np.asarray(values, dtype=float)
    stats = np.empty(resamples)
    n = len(data)
    for i in range(resamples):
        rng = spawn(seed, f"bootstrap-{start + i}")
        sample = data[rng.integers(0, n, size=n)]
        stats[i] = statistic(sample)
    return stats


def bootstrap_interval(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap interval of ``statistic`` over ``values``."""
    require_in_range(confidence, 0.5, 0.999, "confidence")
    stats = bootstrap_replicates(
        values, statistic=statistic, resamples=resamples, seed=seed
    )
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(stats, alpha)),
        float(np.quantile(stats, 1.0 - alpha)),
    )


def scheme_yield_interval(
    population, scheme, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson interval for the yield achieved by ``scheme``.

    ``population`` is a :class:`~repro.yieldmodel.analysis.PopulationResult`;
    a chip ships when it passes outright or ``scheme`` rescues it.
    """
    ships = scheme.decide(population.chips()).saved
    return wilson_interval(
        int(np.count_nonzero(ships)), ships.shape[0], confidence
    )


def loss_reduction_interval(
    population,
    scheme,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Bootstrap interval for the scheme's fractional loss reduction.

    Loss reduction is ``1 - residual/base`` — a ratio of correlated
    counts, so the bootstrap resamples (failing, saved) chip pairs.
    """
    chips = population.chips()
    outcomes = scheme.decide(chips).saved[~chips.passes].astype(float)
    if not outcomes.size:
        raise ConfigurationError("no failing chips to estimate from")
    return bootstrap_interval(
        outcomes,
        statistic=np.mean,  # saved fraction of failures == loss reduction
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )
