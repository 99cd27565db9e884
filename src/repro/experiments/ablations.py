"""Ablations of the design choices DESIGN.md calls out.

* ``ablation_corr`` — spatial correlation sweep. H-YAPD's advantage rests
  on the same horizontal band failing across ways; scaling the way-level
  correlation factors (larger factor = *less* correlation, the paper's
  convention) and switching the shared band component on/off shows when
  horizontal power-down beats vertical.
* ``ablation_lbb`` — load-bypass buffer depth. The paper fixes
  single-entry buffers (one extra cycle) arguing deeper buffers buy
  little yield for a lot of performance; this sweep quantifies both
  sides: yield saved by VACA with slack 0/1/2 cycles and the CPI cost of
  running a way at 4+slack cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    benchmark_names,
)
from repro.schemes import DeepVACA, HYAPD, YAPD, VACA
from repro.variation.sampling import CacheVariationSampler
from repro.variation.spatial import CorrelationFactors
from repro.yieldmodel import YieldStudy
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run_ablation_corr", "run_ablation_lbb"]


def run_ablation_corr(
    settings: ExperimentSettings, engine: Engine
) -> ExperimentResult:
    """Sweep spatial correlation; compare YAPD vs H-YAPD loss reduction."""
    chips = min(settings.chips, 800)
    rows: List[List[object]] = []
    sweep = []
    for way_scale in (0.5, 1.0, 2.0):
        for band in (0.0, 1.3):
            factors = CorrelationFactors().scaled_ways(way_scale).with_band(band)
            sampler = CacheVariationSampler(factors=factors)
            pop = YieldStudy(
                seed=settings.seed, count=chips, sampler=sampler
            ).run()
            bd = pop.breakdown([YAPD()], horizontal=False)
            bdh = pop.breakdown([HYAPD()], horizontal=True)
            yapd = bd.loss_reduction("YAPD")
            hyapd = bdh.loss_reduction("H-YAPD")
            sweep.append((way_scale, band, yapd, hyapd))
            rows.append(
                [
                    way_scale,
                    band,
                    bd.base_total,
                    f"{yapd:.1%}",
                    f"{hyapd:.1%}",
                    "H-YAPD" if hyapd > yapd else "YAPD",
                ]
            )
    return ExperimentResult(
        experiment="ablation_corr",
        title=(
            "Ablation: spatial correlation vs power-down granularity "
            f"({chips} chips/point; way scale >1 = less way correlation)"
        ),
        headers=[
            "way factor scale",
            "band factor",
            "base losses",
            "YAPD reduction",
            "H-YAPD reduction",
            "winner",
        ],
        rows=rows,
        notes=[
            "H-YAPD needs the shared band component (band factor > 0) to "
            "beat YAPD: with bands decorrelated the horizontal regions of "
            "different ways no longer fail together.",
        ],
        data={"sweep": sweep},
    )


def _slow_way(slack: int) -> Tuple[int, ...]:
    """Per-way latencies with one way at 4 + ``slack`` cycles (the
    deepest rescue a buffer of that depth enables)."""
    return (BASE_ACCESS_CYCLES,) * 3 + (BASE_ACCESS_CYCLES + slack,)


def run_ablation_lbb(
    settings: ExperimentSettings, engine: Engine
) -> ExperimentResult:
    """Load-bypass buffer depth: yield saved vs performance cost."""
    pop = engine.population(settings)
    names = benchmark_names(settings)
    # Every simulation the sweep reads, in one batch, so the engine
    # dispatches the cache misses to the worker pool at once; the
    # per-cell lookups below then hit the in-process memo.
    engine.simulate_many(
        settings,
        [(name, None, None) for name in names]
        + [(name, _slow_way(slack), None) for slack in (1, 2) for name in names],
    )
    rows: List[List[object]] = []
    data = {}
    for slack in (0, 1, 2):
        scheme = DeepVACA(slack) if slack != 1 else VACA()
        breakdown = pop.breakdown([scheme], horizontal=False)
        reduction = breakdown.loss_reduction(scheme.name)

        if slack == 0:
            cost = 0.0
        else:
            degs = [
                engine.simulate(
                    settings, name, way_cycles=_slow_way(slack)
                ).degradation_vs(engine.simulate(settings, name))
                for name in names
            ]
            cost = sum(degs) / len(degs)
        rows.append(
            [slack, breakdown.scheme_total(scheme.name),
             f"{reduction:.1%}", f"{cost:.2%}"]
        )
        data[slack] = {"reduction": reduction, "cost": cost}
    return ExperimentResult(
        experiment="ablation_lbb",
        title="Ablation: load-bypass buffer depth (extra cycles absorbed)",
        headers=[
            "buffer slack (cycles)",
            "residual losses",
            "loss reduction",
            "CPI cost of one 4+slack-cycle way",
        ],
        rows=rows,
        notes=[
            "The paper fixes slack=1: deeper buffers add little yield for "
            "rapidly growing performance cost (its Section 4.3).",
        ],
        data=data,
    )
