"""Design-space studies beyond the paper's fixed 4-way, 85C setup.

* ``ablation_assoc`` — associativity sweep. YAPD's granularity is one
  way, so its cost and its rescue reach scale with associativity: a
  2-way cache loses half its capacity per rescue, an 8-way only an
  eighth, and more ways mean more chances that all-but-one stay fast.
  The sweep re-runs the yield pipeline with 2-, 4- and 8-way
  organisations (per-way capacity held at the paper's 4 KB).
* ``ablation_temperature`` — binning temperature sweep. Leakage is
  measured at a binning temperature; the thermal models (leakage ~T^2
  with a T-scaled swing, mobility falling with T) shift both the leakage
  spread and the delay distribution, moving the balance between the two
  loss mechanisms. Temperature enters only the circuit model, so the
  sweep's three points are one draw program: the 300 K and 400 K points
  share one draw, evaluated at each temperature.

Each sweep is one :meth:`~repro.engine.core.Engine.studies` call. The
4-way point of the associativity sweep and the 358 K point of the
temperature sweep are the paper's configuration (``TECH45`` is
calibrated at 358 K), so they take their chips from the paper
population when the engine holds that live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.circuit.organization import CacheOrganization
from repro.circuit.technology import TECH45
from repro.experiments.common import ExperimentResult, ExperimentSettings
from repro.schemes import Hybrid, VACA, YAPD
from repro.variation.sampling import CacheVariationSampler
from repro.variation.spatial import MeshLayout
from repro.yieldmodel import LossReason, YieldStudy
from repro.yieldmodel.statistics import scheme_yield_interval

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run_ablation_assoc", "run_ablation_temperature"]

#: (ways, mesh rows, mesh cols) sweep points; per-way capacity fixed.
_ASSOC_SWEEP = ((2, 1, 2), (4, 2, 2), (8, 2, 4))


def run_ablation_assoc(
    settings: ExperimentSettings, engine: Engine
) -> ExperimentResult:
    """Yield pipeline at 2/4/8 ways (the paper evaluates only 4)."""
    chips = min(settings.chips, 800)
    studies = [
        YieldStudy(
            seed=settings.seed,
            count=chips,
            sampler=CacheVariationSampler(
                mesh=MeshLayout(rows=mesh_rows, cols=mesh_cols),
                num_ways=ways,
            ),
            organization=CacheOrganization(num_ways=ways),
        )
        for ways, mesh_rows, mesh_cols in _ASSOC_SWEEP
    ]
    rows: List[List[object]] = []
    data = {}
    for study, pop in zip(studies, engine.studies(studies)):
        ways = study.organization.num_ways
        bd = pop.breakdown([YAPD(), VACA(), Hybrid()])
        low, high = scheme_yield_interval(pop, Hybrid())
        rows.append(
            [
                ways,
                study.organization.capacity_bytes // 1024,
                bd.base_total,
                f"{bd.loss_reduction('YAPD'):.1%}",
                f"{bd.loss_reduction('VACA'):.1%}",
                f"{bd.loss_reduction('Hybrid'):.1%}",
                f"[{low:.1%}, {high:.1%}]",
            ]
        )
        data[ways] = {
            "base": bd.base_total,
            "yapd": bd.loss_reduction("YAPD"),
            "vaca": bd.loss_reduction("VACA"),
            "hybrid": bd.loss_reduction("Hybrid"),
        }
    return ExperimentResult(
        experiment="ablation_assoc",
        title=(
            f"Ablation: associativity sweep ({chips} chips/point, "
            "per-way capacity fixed at 4 KB)"
        ),
        headers=[
            "ways",
            "capacity (KB)",
            "base losses",
            "YAPD",
            "VACA",
            "Hybrid",
            "Hybrid yield 95% CI",
        ],
        rows=rows,
        notes=[
            "Lower associativity makes one power-down *stronger* (one of "
            "two ways is half the leakage) but costlier in capacity; at "
            "high associativity more ways can violate at once, so the "
            "one-disable budget rescues a smaller share.",
        ],
        data=data,
    )


#: Binning temperatures (K): room, the calibration point (85C), and hot.
_TEMPERATURES = (300.0, 358.0, 400.0)


def run_ablation_temperature(
    settings: ExperimentSettings, engine: Engine
) -> ExperimentResult:
    """Yield-loss composition vs binning temperature."""
    chips = min(settings.chips, 800)
    populations = engine.studies([
        YieldStudy(
            seed=settings.seed,
            count=chips,
            tech=TECH45.replace(temperature=temperature),
        )
        for temperature in _TEMPERATURES
    ])
    rows: List[List[object]] = []
    data = {}
    for temperature, pop in zip(_TEMPERATURES, populations):
        bd = pop.breakdown([Hybrid()])
        leak = bd.base_counts.get(LossReason.LEAKAGE, 0)
        delay = bd.base_total - leak
        rows.append(
            [
                f"{temperature - 273.15:.0f}C",
                bd.base_total,
                leak,
                delay,
                f"{bd.loss_reduction('Hybrid'):.1%}",
                f"{bd.yield_with('Hybrid'):.1%}",
            ]
        )
        data[temperature] = {
            "base": bd.base_total,
            "leakage": leak,
            "delay": delay,
        }
    return ExperimentResult(
        experiment="ablation_temperature",
        title=(
            f"Ablation: binning temperature sweep ({chips} chips/point; "
            "limits re-derived per temperature)"
        ),
        headers=[
            "binning temp",
            "base losses",
            "leakage losses",
            "delay losses",
            "Hybrid reduction",
            "Hybrid yield",
        ],
        rows=rows,
        notes=[
            "Cold binning widens the *relative* leakage spread (the swing "
            "shrinks with T) while speeding paths up - the loss mix shifts "
            "toward leakage; hot binning does the opposite.",
        ],
        data=data,
    )
