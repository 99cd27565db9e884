"""Section 4.2 — the H-YAPD organisation's access-latency overhead.

The paper measures a 2.5% average access-latency increase for the H-YAPD
post-decoder organisation in HSPICE. In the reproduction that overhead is
a technology constant applied by the circuit model; this experiment
verifies it end to end: nominal path delays of both organisations and the
population-mean overhead under process variation (which stays 2.5% since
the overhead is multiplicative).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuit import CacheCircuitModel
from repro.core import units
from repro.experiments.common import ExperimentResult, ExperimentSettings

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run"]


def run(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Compare regular vs H-YAPD organisation delays."""
    regular = CacheCircuitModel(hyapd=False)
    horizontal = CacheCircuitModel(hyapd=True)
    nominal_regular = regular.nominal().access_delays.tolist()[0]
    nominal_horizontal = horizontal.nominal().access_delays.tolist()[0]

    pop = engine.population(settings)
    mean_regular = sum(pop.regular.access_delays.tolist()) / pop.population
    mean_horizontal = (
        sum(pop.horizontal.access_delays.tolist()) / pop.population
    )

    base_losses = pop.population - int(pop.chips(False).passes.sum())
    h_losses = pop.population - int(pop.chips(True).passes.sum())

    rows = [
        ["nominal access delay, regular (ps)", round(units.to_ps(nominal_regular), 1)],
        ["nominal access delay, H-YAPD (ps)", round(units.to_ps(nominal_horizontal), 1)],
        ["nominal overhead", f"{nominal_horizontal / nominal_regular - 1:.2%}"],
        ["population mean delay, regular (ps)", round(units.to_ps(mean_regular), 1)],
        ["population mean delay, H-YAPD (ps)", round(units.to_ps(mean_horizontal), 1)],
        ["population overhead", f"{mean_horizontal / mean_regular - 1:.2%}"],
        ["base losses, regular architecture", base_losses],
        ["base losses, H-YAPD architecture", h_losses],
    ]
    return ExperimentResult(
        experiment="sec42",
        title="Section 4.2: H-YAPD organisation latency overhead",
        headers=["quantity", "value"],
        rows=rows,
        notes=[
            "Paper: +2.5% average access latency; base loss grows from "
            "16.9% to 18.1% of 2000 chips.",
        ],
        data={
            "nominal_overhead": nominal_horizontal / nominal_regular - 1,
            "base_losses": base_losses,
            "h_losses": h_losses,
        },
    )
