"""Figure 1 — yield factors for different process technologies.

Figure 1 is background data the paper reproduces from Jones [18]: the
nominal yield of each technology generation and the attribution of the
losses to defect density, lithography, and parametric effects, showing
parametric loss becoming the dominant inhibitor from 0.18 um down. The
series below digitise that chart; the experiment renders the same stacked
breakdown and checks its internal consistency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.experiments.common import ExperimentResult, ExperimentSettings

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run", "TECHNOLOGY_NODES", "YIELD_FACTORS"]

#: Technology nodes (micron), oldest first — the paper's x axis.
TECHNOLOGY_NODES = ("0.35", "0.25", "0.18", "0.13", "0.09")

#: Digitised stacked percentages per node:
#: (defect-density loss, lithography loss, parametric loss, yield).
YIELD_FACTORS = {
    "0.35": (5.0, 2.0, 1.0, 92.0),
    "0.25": (7.0, 3.0, 4.0, 86.0),
    "0.18": (9.0, 5.0, 11.0, 75.0),
    "0.13": (10.0, 7.0, 19.0, 64.0),
    "0.09": (11.0, 9.0, 28.0, 52.0),
}


def run(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Render the Figure 1 breakdown."""
    rows = []
    for node in TECHNOLOGY_NODES:
        defect, litho, parametric, yield_pct = YIELD_FACTORS[node]
        rows.append(
            [node, defect, litho, parametric, yield_pct,
             defect + litho + parametric + yield_pct]
        )
    return ExperimentResult(
        experiment="fig1",
        title=(
            "Figure 1: yield factors by technology node "
            "(% of manufactured chips; literature data [18])"
        ),
        headers=[
            "node(um)", "defect", "litho", "parametric", "yield", "total",
        ],
        rows=rows,
        notes=[
            "Parametric loss overtakes defect+litho from the 0.13 um node,",
            "which is the motivation for the paper's yield-aware schemes.",
        ],
        data={"factors": dict(YIELD_FACTORS)},
    )
