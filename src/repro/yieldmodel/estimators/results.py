"""Result types of the estimator layer.

A :class:`YieldEstimate` is one figure (e.g. the regular architecture's
base yield) with its confidence interval, sample count and effective
sample size; an :class:`EstimateReport` bundles every tracked figure of
one estimation run together with the spec identity and the constraints
the chips were held against. Both are plain data with exact-float dict
codecs (:func:`estimate_to_dict` / :func:`estimate_from_dict`) so the
engine's store round-trips them bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.yieldmodel.constraints import YieldConstraints

__all__ = [
    "FIGURES",
    "EstimateReport",
    "YieldEstimate",
    "estimate_from_dict",
    "estimate_to_dict",
]

#: The yield figures every estimator tracks, in report order.
FIGURES = ("regular.base", "horizontal.base")


@dataclass(frozen=True)
class YieldEstimate:
    """One estimated yield figure with its uncertainty.

    ``ess`` is the effective sample size: equal to ``samples`` for
    unweighted estimators, and ``(sum w)^2 / sum w^2`` under importance
    sampling — how many unweighted chips this weighted sample is worth.
    """

    figure: str
    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    ess: float

    @property
    def ci_halfwidth(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


@dataclass(frozen=True)
class EstimateReport:
    """Everything one estimation run produced."""

    kind: str
    spec: Dict[str, object]
    policy: str
    constraints: YieldConstraints
    estimates: Tuple[YieldEstimate, ...]
    samples_total: int
    batches: int
    pilot_samples: int


# ----------------------------------------------------------------------
# dict codecs (the store's JSON payload shape)
# ----------------------------------------------------------------------
def estimate_to_dict(report: EstimateReport) -> dict:
    """Flatten a report to a JSON-able dict (floats survive exactly)."""
    return {
        "kind": report.kind,
        "spec": dict(report.spec),
        "policy": report.policy,
        "constraints": {
            "delay_limit": report.constraints.delay_limit,
            "leakage_limit": report.constraints.leakage_limit,
        },
        "estimates": [
            {
                "figure": e.figure,
                "estimate": e.estimate,
                "ci_low": e.ci_low,
                "ci_high": e.ci_high,
                "samples": e.samples,
                "ess": e.ess,
            }
            for e in report.estimates
        ],
        "samples_total": report.samples_total,
        "batches": report.batches,
        "pilot_samples": report.pilot_samples,
    }


def estimate_from_dict(payload: dict) -> EstimateReport:
    """Rebuild a report from its stored payload."""
    return EstimateReport(
        kind=str(payload["kind"]),
        spec=dict(payload["spec"]),
        policy=str(payload["policy"]),
        constraints=YieldConstraints(
            delay_limit=payload["constraints"]["delay_limit"],
            leakage_limit=payload["constraints"]["leakage_limit"],
        ),
        estimates=tuple(
            YieldEstimate(
                figure=str(e["figure"]),
                estimate=float(e["estimate"]),
                ci_low=float(e["ci_low"]),
                ci_high=float(e["ci_high"]),
                samples=int(e["samples"]),
                ess=float(e["ess"]),
            )
            for e in payload["estimates"]
        ),
        samples_total=int(payload["samples_total"]),
        batches=int(payload["batches"]),
        pilot_samples=int(payload["pilot_samples"]),
    )
