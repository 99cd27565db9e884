"""The estimator algorithms: fixed-N, adaptive, stratified, IS.

All four produce an :class:`~repro.yieldmodel.estimators.results.EstimateReport`
tracking the base yield of both architectures. Shared discipline:

* every chip comes from a tagged ``(seed, tag, chip_id)`` stream through
  the chip dispatcher each estimator takes as ``runner`` (the engine's
  :class:`~repro.engine.chips.BatchRunner`), so the numbers are
  bit-deterministic at any worker count;
* the ``"chip"`` tag is the reference population's own stream — pilots
  and adaptive batches are literal prefixes of the brute-force
  population;
* the constraint limits are population-derived (mean + k·sigma), so the
  fixed and adaptive estimators re-derive them over their cumulative
  sample, while the stratified and IS estimators freeze them from their
  pilot (a weighted/conditioned sample cannot re-derive nominal
  population moments) — the yields they estimate are yields *given*
  those pilot limits, which agree with the brute-force limits to within
  pilot sampling error.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.yieldmodel.analysis import derive_constraints
from repro.yieldmodel.classify import ChipColumns
from repro.yieldmodel.constraints import ConstraintPolicy, YieldConstraints
from repro.yieldmodel.estimators.results import (
    EstimateReport,
    FIGURES,
    YieldEstimate,
)
from repro.yieldmodel.estimators.sampling import NUM_DIE_PARAMS, ShardData
from repro.yieldmodel.estimators.spec import ESTIMATOR_KINDS, EstimatorSpec
from repro.yieldmodel.statistics import wilson_interval, z_score

if TYPE_CHECKING:
    from repro.engine.chips import BatchRunner

__all__ = [
    "ESTIMATOR_KINDS",
    "adaptive_chips",
    "estimate_adaptive",
    "estimate_fixed",
    "estimate_is",
    "estimate_stratified",
    "neyman_allocation",
    "run_estimate",
]

#: Largest |component| the IS mean shift may take: a tilt beyond two
#: sigma starves the nominal bulk and explodes weight variance.
_MAX_TILT = 2.0

#: Pilot-score quantile above which a passing chip still counts as
#: "near-limit" for the tilt direction.
_NEAR_LIMIT_QUANTILE = 0.9


def _passing(
    circuits: CircuitColumns, constraints: YieldConstraints
) -> np.ndarray:
    """Which chips ship: the population classification's pass column."""
    return ChipColumns(circuits, constraints).passes


def _failures(circuits: CircuitColumns, constraints: YieldConstraints) -> int:
    return len(circuits) - ChipColumns(circuits, constraints).ships


def _figure_circuits(data: ShardData) -> List[Tuple[str, CircuitColumns]]:
    return [(FIGURES[0], data.regular), (FIGURES[1], data.horizontal)]


def _wilson_estimates(
    regular: CircuitColumns,
    horizontal: CircuitColumns,
    constraints: YieldConstraints,
    confidence: float,
) -> Tuple[YieldEstimate, ...]:
    estimates = []
    total = len(regular)
    for figure, circuits in zip(FIGURES, (regular, horizontal)):
        ships = total - _failures(circuits, constraints)
        low, high = wilson_interval(ships, total, confidence)
        estimates.append(
            YieldEstimate(
                figure=figure,
                estimate=ships / total,
                ci_low=low,
                ci_high=high,
                samples=total,
                ess=float(total),
            )
        )
    return tuple(estimates)


def _max_halfwidth(estimates: Sequence[YieldEstimate]) -> float:
    return max(e.ci_halfwidth for e in estimates)


# ----------------------------------------------------------------------
# fixed-N (the legacy reference)
# ----------------------------------------------------------------------
def estimate_fixed(
    runner: BatchRunner,
    spec: EstimatorSpec,
    seed: int,
    chips: int,
    policy: ConstraintPolicy,
) -> EstimateReport:
    """Brute-force Monte Carlo over the full population, Wilson CIs.

    The chips are the reference population's first rows
    (:meth:`~repro.engine.chips.BatchRunner.reference`): a live
    population's when the runner's engine holds one, otherwise drawn.
    """
    total = spec.sample_cap(chips)
    regular, horizontal = runner.reference(seed, total)
    constraints = derive_constraints(policy, regular)
    return EstimateReport(
        kind="fixed",
        spec=spec.identity(),
        policy=policy.name,
        constraints=constraints,
        estimates=_wilson_estimates(
            regular, horizontal, constraints, spec.confidence
        ),
        samples_total=total,
        batches=1,
        pilot_samples=0,
    )


# ----------------------------------------------------------------------
# adaptive sequential
# ----------------------------------------------------------------------
def adaptive_chips(
    runner: BatchRunner,
    spec: EstimatorSpec,
    seed: int,
    cap: int,
    policy: ConstraintPolicy,
) -> Tuple[ShardData, int]:
    """Sequential batches of the reference stream with CI-driven stopping.

    Draws ``spec.batch_size`` chips per round and stops at ``cap`` chips
    or, with a ``ci_target``, once the Wilson half-width of every
    tracked figure is at or below it, the limits re-derived over the
    cumulative chips (they are population statistics). Returns the
    joined chips and the number of batches. The stopping decision is a
    pure function of the drawn chips, so they are the first N chips of
    the reference population at any worker count. The adaptive estimate
    and the adaptive population both stop here.
    """
    parts: List[ShardData] = []
    drawn = 0
    while True:
        take = min(spec.batch_size, cap - drawn)
        parts.append(runner.run(seed, "chip", drawn, drawn + take))
        drawn += take
        data = ShardData.join(parts)
        if drawn >= cap:
            return data, len(parts)
        if spec.ci_target is not None:
            constraints = derive_constraints(policy, data.regular)
            estimates = _wilson_estimates(
                data.regular, data.horizontal, constraints, spec.confidence
            )
            if _max_halfwidth(estimates) <= spec.ci_target:
                return data, len(parts)


def estimate_adaptive(
    runner: BatchRunner,
    spec: EstimatorSpec,
    seed: int,
    chips: int,
    policy: ConstraintPolicy,
) -> EstimateReport:
    """Wilson estimates over the chips :func:`adaptive_chips` stops at.

    At any stopping point N the estimate equals exactly what ``fixed``
    with N chips would report. Without a ``ci_target`` the estimator
    runs to its cap — the legacy fixed-N behaviour.
    """
    data, batches = adaptive_chips(
        runner, spec, seed, spec.sample_cap(chips), policy
    )
    constraints = derive_constraints(policy, data.regular)
    return EstimateReport(
        kind="adaptive",
        spec=spec.identity(),
        policy=policy.name,
        constraints=constraints,
        estimates=_wilson_estimates(
            data.regular, data.horizontal, constraints, spec.confidence
        ),
        samples_total=data.count,
        batches=batches,
        pilot_samples=0,
    )


# ----------------------------------------------------------------------
# stratified with Neyman allocation
# ----------------------------------------------------------------------
def neyman_allocation(
    weights: Sequence[float],
    sigmas: Sequence[float],
    total: int,
    floor: int = 0,
) -> List[int]:
    """Allocate ``total`` samples across strata, n_h proportional to w_h·s_h.

    Deterministic largest-remainder rounding: the result always sums to
    ``total`` exactly, every stratum gets at least ``floor``, and ties
    break by stratum index. All-zero scores degrade to an equal split.
    """
    strata = len(weights)
    if strata == 0:
        raise ConfigurationError("need at least one stratum")
    if len(sigmas) != strata:
        raise ConfigurationError("weights and sigmas must align")
    if floor < 0:
        raise ConfigurationError(f"floor must be >= 0, got {floor}")
    if total < strata * floor:
        raise ConfigurationError(
            f"cannot allocate {total} samples with a per-stratum floor of "
            f"{floor} over {strata} strata"
        )
    scores = [
        max(0.0, float(w)) * max(0.0, float(s))
        for w, s in zip(weights, sigmas)
    ]
    if not any(scores):
        scores = [1.0] * strata
    spendable = total - strata * floor
    score_sum = sum(scores)
    raw = [spendable * score / score_sum for score in scores]
    alloc = [floor + int(math.floor(r)) for r in raw]
    remaining = total - sum(alloc)
    by_remainder = sorted(
        range(strata), key=lambda h: (-(raw[h] - math.floor(raw[h])), h)
    )
    for i in range(remaining):
        alloc[by_remainder[i % strata]] += 1
    return alloc


def _shrunk(fails: int, drawn: int) -> float:
    """Shrunk failure probability (never exactly 0 or 1).

    Used for variance terms and allocation scores: an all-pass stratum
    must keep a nonzero variance floor, or its CI collapses to a point
    and the allocator starves it forever.
    """
    return (fails + 0.5) / (drawn + 1.0)


def estimate_stratified(
    runner: BatchRunner,
    spec: EstimatorSpec,
    seed: int,
    chips: int,
    policy: ConstraintPolicy,
) -> EstimateReport:
    """Equiprobable VT strata, pilot-sized by Neyman allocation.

    The die-level threshold-voltage draw is partitioned into ``K``
    equiprobable strata via the measure-preserving probability
    transform; per-stratum yields recombine with exact ``1/K`` weights.
    A balanced pilot (the same chip count in every stratum *is* a valid
    population sample) derives the frozen limits and seeds the
    per-stratum variance estimates that drive each round's allocation.
    """
    strata = spec.strata
    weight = 1.0 / strata
    z = z_score(spec.confidence)
    cap = spec.sample_cap(chips)
    pilot_each = spec.stratum_pilot_chips

    pilot_batches = [
        runner.run(
            seed, f"s{h}-chip", 0, pilot_each, stratum=(h, strata)
        )
        for h in range(strata)
    ]
    constraints = derive_constraints(
        policy, ShardData.join(pilot_batches).regular
    )
    drawn = [pilot_each] * strata
    fails: Dict[str, List[int]] = {figure: [0] * strata for figure in FIGURES}
    for h, batch in enumerate(pilot_batches):
        for figure, circuits in _figure_circuits(batch):
            fails[figure][h] = _failures(circuits, constraints)
    total = strata * pilot_each
    batches = 1

    def halfwidth(figure: str) -> float:
        variance = sum(
            weight * weight * _shrunk(fails[figure][h], drawn[h])
            * (1.0 - _shrunk(fails[figure][h], drawn[h])) / drawn[h]
            for h in range(strata)
        )
        return z * math.sqrt(variance)

    while total < cap:
        if spec.ci_target is not None and all(
            halfwidth(figure) <= spec.ci_target for figure in FIGURES
        ):
            break
        budget = min(spec.batch_size, cap - total)
        sigmas = [
            max(
                math.sqrt(
                    _shrunk(fails[figure][h], drawn[h])
                    * (1.0 - _shrunk(fails[figure][h], drawn[h]))
                )
                for figure in FIGURES
            )
            for h in range(strata)
        ]
        allocation = neyman_allocation([weight] * strata, sigmas, budget)
        for h, extra in enumerate(allocation):
            if extra <= 0:
                continue
            batch = runner.run(
                seed, f"s{h}-chip", drawn[h], drawn[h] + extra,
                stratum=(h, strata),
            )
            for figure, circuits in _figure_circuits(batch):
                fails[figure][h] += _failures(circuits, constraints)
            drawn[h] += extra
        total += budget
        batches += 1

    estimates = []
    for figure in FIGURES:
        loss = sum(
            weight * fails[figure][h] / drawn[h] for h in range(strata)
        )
        value = 1.0 - loss
        half = halfwidth(figure)
        estimates.append(
            YieldEstimate(
                figure=figure,
                estimate=value,
                ci_low=max(0.0, value - half),
                ci_high=min(1.0, value + half),
                samples=total,
                ess=float(total),
            )
        )
    return EstimateReport(
        kind="stratified",
        spec=spec.identity(),
        policy=policy.name,
        constraints=constraints,
        estimates=tuple(estimates),
        samples_total=total,
        batches=batches,
        pilot_samples=strata * pilot_each,
    )


# ----------------------------------------------------------------------
# importance sampling (mean-shift tilt, exact likelihood ratios)
# ----------------------------------------------------------------------
def _tilt_from_pilot(
    pilot: ShardData, constraints: YieldConstraints, tilt_scale: float
) -> List[float]:
    """Mean shift toward the limit surfaces, from the pilot's worst chips.

    Selects every failing chip (either architecture) plus the passing
    chips nearest the limits (top decile of max(delay, leakage) limit
    utilisation), then points the tilt at their average die-level z.
    """
    regular = pilot.regular
    scores = np.maximum(
        regular.access_delays / constraints.delay_limit,
        regular.total_leakage / constraints.leakage_limit,
    ).tolist()
    count = len(scores)
    threshold = sorted(scores)[
        min(count - 1, int(math.floor(_NEAR_LIMIT_QUANTILE * (count - 1))))
    ]
    failing = ~(
        _passing(regular, constraints)
        & _passing(pilot.horizontal, constraints)
    )
    selected = [
        i
        for i, fails in enumerate(failing.tolist())
        if fails or scores[i] >= threshold
    ]
    die_z = pilot.die_z.tolist()
    tilt = []
    for j in range(NUM_DIE_PARAMS):
        mean = sum(die_z[i][j] for i in selected) / len(selected)
        tilt.append(max(-_MAX_TILT, min(_MAX_TILT, tilt_scale * mean)))
    return tilt


def _mean_halfwidth(values: Sequence[float], z: float) -> float:
    count = len(values)
    if count < 2:
        return math.inf
    mean = sum(values) / count
    variance = sum((v - mean) ** 2 for v in values) / (count - 1)
    return z * math.sqrt(variance / count)


def estimate_is(
    runner: BatchRunner,
    spec: EstimatorSpec,
    seed: int,
    chips: int,
    policy: ConstraintPolicy,
) -> EstimateReport:
    """Importance sampling with a pilot-calibrated mean-shift tilt.

    A nominal pilot derives the limits and the tilt direction; the main
    stream draws die-level z from N(theta, I) instead of N(0, I) and
    reweights each chip by the exact likelihood ratio
    ``w = exp(sum_j theta_j^2/2 - theta_j z'_j)`` computed on the raw
    columns. The failure-probability estimator ``mean(w * 1[fail])`` is
    unbiased for the nominal-measure failure rate — the clip and every
    downstream transform are deterministic functions applied identically
    under both measures.
    """
    z = z_score(spec.confidence)
    cap = spec.sample_cap(chips)
    pilot_n = spec.pilot_chips
    pilot = runner.run(seed, "chip", 0, pilot_n)
    constraints = derive_constraints(policy, pilot.regular)
    tilt = _tilt_from_pilot(pilot, constraints, spec.tilt_scale)

    weights: List[float] = []
    values: Dict[str, List[float]] = {figure: [] for figure in FIGURES}
    drawn = 0
    batches = 1  # the pilot
    while True:
        take = min(spec.batch_size, cap - pilot_n - drawn)
        batch = runner.run(seed, "is-chip", drawn, drawn + take, shift=tilt)
        for reg_ships, hor_ships, die_z in zip(
            _passing(batch.regular, constraints).tolist(),
            _passing(batch.horizontal, constraints).tolist(),
            batch.die_z.tolist(),
        ):
            log_w = sum(
                t * t / 2.0 - t * zj for t, zj in zip(tilt, die_z)
            )
            w = math.exp(log_w)
            weights.append(w)
            values[FIGURES[0]].append(0.0 if reg_ships else w)
            values[FIGURES[1]].append(0.0 if hor_ships else w)
        drawn += take
        batches += 1
        if pilot_n + drawn >= cap:
            break
        if spec.ci_target is not None and all(
            _mean_halfwidth(values[figure], z) <= spec.ci_target
            for figure in FIGURES
        ):
            break

    weight_sum = sum(weights)
    weight_sq_sum = sum(w * w for w in weights)
    ess = (
        weight_sum * weight_sum / weight_sq_sum if weight_sq_sum > 0 else 0.0
    )
    samples = pilot_n + drawn
    estimates = []
    for figure in FIGURES:
        loss = sum(values[figure]) / drawn
        value = min(1.0, max(0.0, 1.0 - loss))
        half = _mean_halfwidth(values[figure], z)
        estimates.append(
            YieldEstimate(
                figure=figure,
                estimate=value,
                ci_low=max(0.0, value - half),
                ci_high=min(1.0, value + half),
                samples=samples,
                ess=ess,
            )
        )
    return EstimateReport(
        kind="is",
        spec=spec.identity(),
        policy=policy.name,
        constraints=constraints,
        estimates=tuple(estimates),
        samples_total=samples,
        batches=batches,
        pilot_samples=pilot_n,
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
_ESTIMATORS = {
    "fixed": estimate_fixed,
    "adaptive": estimate_adaptive,
    "stratified": estimate_stratified,
    "is": estimate_is,
}


def run_estimate(
    runner: BatchRunner,
    spec: EstimatorSpec,
    seed: int,
    chips: int,
    policy: ConstraintPolicy,
) -> EstimateReport:
    """Run the estimator ``spec`` selects (the engine's entry point)."""
    return _ESTIMATORS[spec.kind](runner, spec, seed, chips, policy)
