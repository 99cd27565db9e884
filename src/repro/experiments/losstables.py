"""Tables 2-5 — sources of yield loss and constraint sensitivity.

Tables 2 and 3 break the failing chips down by reason of loss (leakage;
delay with 1..4 violating ways) and report the residual losses under each
scheme, for the regular power-down cache (Table 2) and the horizontal
power-down cache (Table 3). Tables 4 and 5 repeat the totals under the
relaxed (4x leakage, mean+1.5 sigma) and strict (2x, mean+0.5 sigma)
constraint policies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    scheme_set,
)
from repro.yieldmodel.analysis import LossBreakdown
from repro.yieldmodel.constraints import RELAXED_POLICY, STRICT_POLICY

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run_table2", "run_table3", "run_table4", "run_table5"]

#: Paper values for the notes (reason-ordered: leakage, delay 1..4, total).
_PAPER_TABLE2 = {
    "base": (138, 126, 36, 23, 16, 339),
    "YAPD": (33, 0, 36, 23, 16, 108),
    "VACA": (138, 34, 20, 19, 15, 226),
    "Hybrid": (33, 0, 7, 11, 13, 64),
}
_PAPER_TABLE3 = {
    "base": (138, 142, 33, 29, 20, 362),
    "H-YAPD": (26, 0, 33, 24, 17, 100),
    "VACA": (138, 38, 17, 21, 19, 233),
    "Hybrid-H": (26, 0, 6, 12, 16, 60),
}


def _breakdown_result(
    experiment: str,
    title: str,
    breakdown: LossBreakdown,
    paper: dict,
) -> ExperimentResult:
    scheme_names = list(breakdown.scheme_losses)
    headers = ["reason of loss", "# chips"] + scheme_names
    rows: List[List[object]] = []
    for reason, base, losses in breakdown.rows():
        rows.append(
            [reason.value, base] + [losses[name] for name in scheme_names]
        )
    rows.append(
        ["total", breakdown.base_total]
        + [breakdown.scheme_total(name) for name in scheme_names]
    )
    notes = [
        "Yield: base {:.1%}".format(breakdown.yield_with())
        + "".join(
            f", {name} {breakdown.yield_with(name):.1%}" for name in scheme_names
        ),
        "Loss reduction: "
        + ", ".join(
            f"{name} {breakdown.loss_reduction(name):.1%}"
            for name in scheme_names
        ),
        "Paper totals (2000 chips): "
        + ", ".join(f"{k} {v[-1]}" for k, v in paper.items()),
    ]
    return ExperimentResult(
        experiment=experiment,
        title=title,
        headers=headers,
        rows=rows,
        notes=notes,
        data={"breakdown": breakdown, "paper": paper},
    )


def run_table2(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Table 2: sources of yield loss, regular power-down cache."""
    pop = engine.population(settings)
    breakdown = pop.breakdown(scheme_set(horizontal=False), horizontal=False)
    return _breakdown_result(
        "table2",
        "Table 2: sources of yield loss for regular power-down",
        breakdown,
        _PAPER_TABLE2,
    )


def run_table3(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Table 3: sources of yield loss, horizontal power-down cache."""
    pop = engine.population(settings)
    breakdown = pop.breakdown(scheme_set(horizontal=True), horizontal=True)
    return _breakdown_result(
        "table3",
        "Table 3: sources of yield loss for horizontal power-down "
        "(H-YAPD organisation, +2.5% latency)",
        breakdown,
        _PAPER_TABLE3,
    )


def _totals_result(
    experiment: str,
    title: str,
    settings: ExperimentSettings,
    engine: Engine,
    horizontal: bool,
) -> ExperimentResult:
    pop = engine.population(settings)
    schemes = scheme_set(horizontal)
    scheme_names = [scheme.name for scheme in schemes]
    headers = ["constraints", "# chips"] + scheme_names
    rows: List[List[object]] = []
    breakdowns = {}
    for policy in (RELAXED_POLICY, STRICT_POLICY):
        repop = pop.reconstrained(policy)
        breakdown = repop.breakdown(schemes, horizontal=horizontal)
        breakdowns[policy.name] = breakdown
        rows.append(
            [policy.name, breakdown.base_total]
            + [breakdown.scheme_total(name) for name in scheme_names]
        )
    paper = (
        "Paper (2000 chips): relaxed 191/51/131/25, strict 752/224/516/146"
        if horizontal
        else "Paper (2000 chips): relaxed 184/51/124/25, strict 727/234/503/144"
    )
    hybrid_name = scheme_names[-1]
    notes = [
        paper,
        "Hybrid yields: relaxed {:.1%}, strict {:.1%}".format(
            breakdowns["relaxed"].yield_with(hybrid_name),
            breakdowns["strict"].yield_with(hybrid_name),
        ),
    ]
    return ExperimentResult(
        experiment=experiment,
        title=title,
        headers=headers,
        rows=rows,
        notes=notes,
        data={"breakdowns": breakdowns},
    )


def run_table4(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Table 4: relaxed/strict totals, regular power-down."""
    return _totals_result(
        "table4",
        "Table 4: total yield losses for relaxed and strict constraints "
        "(regular power-down)",
        settings,
        engine,
        horizontal=False,
    )


def run_table5(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Table 5: relaxed/strict totals, horizontal power-down."""
    return _totals_result(
        "table5",
        "Table 5: total yield losses for relaxed and strict constraints "
        "(horizontal power-down)",
        settings,
        engine,
        horizontal=True,
    )
