"""Estimator comparison — samples-per-CI-width across the four kinds.

Not a paper figure: this experiment quantifies the statistical
efficiency of the smart yield estimators against brute force. For every
paper constraint policy it runs the fixed, adaptive, stratified and
importance-sampling estimators at a matched CI target and tabulates the
estimate, interval, sample count and effective sample size — the
"how many chips bought how tight an interval" view the bench suite and
the obs gauges track over time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments.common import ExperimentResult, ExperimentSettings
from repro.yieldmodel.constraints import PAPER_POLICIES
from repro.yieldmodel.estimators import ESTIMATOR_KINDS, EstimatorSpec

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run", "DEFAULT_CI_TARGET"]

#: CI half-width every sequential estimator stops at (matched across
#: kinds so sample counts are comparable).
DEFAULT_CI_TARGET = 0.02


def _specs(base: EstimatorSpec, chips: int) -> dict:
    """One spec per kind, sharing the base's stopping parameters.

    Pilot sizes are clamped to the chip budget: the stratified pilot
    must leave at least half the budget for Neyman rounds and the IS
    pilot at least two thirds for tilted draws, or small smoke-test
    runs (``repro run all --chips 150``) would trip the estimators'
    no-room-beyond-the-pilot guards.
    """
    common = dict(
        ci_target=base.ci_target,
        batch_size=base.batch_size,
        confidence=base.confidence,
    )
    per_stratum = max(
        4, min(base.pilot_chips // base.strata, (chips // 2) // base.strata)
    )
    stratified_pilot = max(8, per_stratum * base.strata)
    is_pilot = max(8, min(base.pilot_chips, chips // 3))
    return {
        "fixed": EstimatorSpec(kind="fixed"),
        "adaptive": EstimatorSpec(kind="adaptive", **common),
        "stratified": EstimatorSpec(
            kind="stratified", pilot_chips=stratified_pilot,
            strata=base.strata, **common,
        ),
        "is": EstimatorSpec(
            kind="is", pilot_chips=is_pilot,
            tilt_scale=base.tilt_scale, **common,
        ),
    }


def run(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Compare all four estimators at a matched CI target."""
    base = engine.config.estimator
    if base is None or base.ci_target is None:
        ci_target = (
            base.ci_target if base is not None and base.ci_target is not None
            else DEFAULT_CI_TARGET
        )
        base = EstimatorSpec(kind="adaptive", ci_target=ci_target)
    specs = _specs(base, settings.chips)
    rows = []
    data: dict = {"ci_target": base.ci_target, "policies": {}}
    for policy in PAPER_POLICIES:
        policy_data: dict = {}
        for kind in ESTIMATOR_KINDS:
            report = engine.estimate(settings, policy, estimator=specs[kind])
            kind_data = {}
            for estimate in report.estimates:
                width = 2.0 * estimate.ci_halfwidth
                rows.append([
                    policy.name,
                    kind,
                    estimate.figure,
                    round(estimate.estimate, 4),
                    round(estimate.ci_low, 4),
                    round(estimate.ci_high, 4),
                    estimate.samples,
                    round(estimate.ess, 1),
                    round(estimate.samples / width, 1) if width > 0 else "",
                ])
                kind_data[estimate.figure] = {
                    "estimate": estimate.estimate,
                    "ci_low": estimate.ci_low,
                    "ci_high": estimate.ci_high,
                    "samples": estimate.samples,
                    "ess": estimate.ess,
                }
            policy_data[kind] = kind_data
        data["policies"][policy.name] = policy_data
    return ExperimentResult(
        experiment="estimators",
        title=(
            "Estimator comparison: fixed vs adaptive vs stratified vs IS "
            f"(matched CI target {base.ci_target})"
        ),
        headers=[
            "policy", "kind", "figure", "yield", "ci_low", "ci_high",
            "samples", "ess", "samples/width",
        ],
        rows=rows,
        notes=[
            "Lower samples at an equal (or tighter) interval is better;",
            "ess is the unweighted-chip equivalent of a weighted sample.",
            "All kinds are bit-deterministic for (seed, spec) at any",
            "worker count and are cached under their spec identity.",
        ],
        data=data,
    )
