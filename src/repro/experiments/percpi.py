"""Figures 9/10 and Section 4.5 — per-benchmark CPI increases.

* Figure 9: CPI increase of every SPEC2000 benchmark for the 3-1-0
  configuration under YAPD (disable the 5-cycle way -> 3 fast ways) and
  under VACA (keep it at 5 cycles). Hybrid keeps the way powered, so its
  bars equal VACA's.
* Figure 10: CPI increase for the 2-2-0 configuration under VACA (YAPD
  cannot save a chip with two slow ways).
* Section 4.5: the naive binning alternative — run *every* access at 5
  (or 6) cycles with the scheduler informed — whose paper-measured costs
  are 6.42% and 12.62%.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    benchmark_names,
)
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run_fig9", "run_fig10", "run_sec45"]

_FOUR = BASE_ACCESS_CYCLES
_FIVE = BASE_ACCESS_CYCLES + 1


def _per_benchmark(
    settings: ExperimentSettings,
    engine: Engine,
    configs: List[Tuple[str, Optional[Tuple[Optional[int], ...]], Optional[int]]],
) -> Tuple[List[List[object]], dict]:
    """Rows of per-benchmark degradations for the given configurations."""
    names = benchmark_names(settings)
    # Prefetch the whole benchmark x configuration sweep in one batch so
    # the engine can dispatch every cache miss to the worker pool at once;
    # the per-cell lookups below then hit the in-process memo.
    engine.simulate_many(
        settings,
        [
            (name, cycles, uniform)
            for name in names
            for cycles, uniform in [(None, None)]
            + [(cycles, uniform) for _, cycles, uniform in configs]
        ],
    )
    rows: List[List[object]] = []
    series: dict = {label: {} for label, _, _ in configs}
    for name in names:
        base = engine.simulate(settings, name)
        row: List[object] = [name, round(base.cpi, 3)]
        for label, cycles, uniform in configs:
            result = engine.simulate(
                settings, name, way_cycles=cycles, uniform_latency=uniform
            )
            deg = result.degradation_vs(base)
            series[label][name] = deg
            row.append(round(deg * 100, 2))
        rows.append(row)
    averages: List[object] = ["average", ""]
    for label, _, _ in configs:
        values = list(series[label].values())
        averages.append(round(sum(values) / len(values) * 100, 2))
    rows.append(averages)
    return rows, series


def run_fig9(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Figure 9: CPI increase for configuration 3-1-0 (YAPD vs VACA)."""
    rows, series = _per_benchmark(
        settings,
        engine,
        [
            ("YAPD", (_FOUR, _FOUR, _FOUR, None), None),
            ("VACA", (_FOUR, _FOUR, _FOUR, _FIVE), None),
        ],
    )
    return ExperimentResult(
        experiment="fig9",
        title=(
            "Figure 9: per-benchmark CPI increase [%] for configuration "
            "3-1-0 (Hybrid keeps the slow way, so Hybrid = VACA)"
        ),
        headers=["benchmark", "base CPI", "YAPD", "VACA"],
        rows=rows,
        notes=["Paper averages: YAPD 1.1%, VACA (and Hybrid) 1.8%."],
        data={"series": series},
    )


def run_fig10(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Figure 10: CPI increase for configuration 2-2-0 (VACA/Hybrid)."""
    rows, series = _per_benchmark(
        settings,
        engine,
        [("VACA", (_FOUR, _FOUR, _FIVE, _FIVE), None)],
    )
    return ExperimentResult(
        experiment="fig10",
        title=(
            "Figure 10: per-benchmark CPI increase [%] for configuration "
            "2-2-0 under VACA (YAPD cannot save these chips)"
        ),
        headers=["benchmark", "base CPI", "VACA"],
        rows=rows,
        notes=["Paper average: 3.3%."],
        data={"series": series},
    )


def run_sec45(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Section 4.5: naive re-binning at 5 and 6 cycles."""
    rows, series = _per_benchmark(
        settings,
        engine,
        [
            ("binning@5", None, _FIVE),
            ("binning@6", None, _FIVE + 1),
        ],
    )
    return ExperimentResult(
        experiment="sec45",
        title=(
            "Section 4.5: naive binning — every load scheduled at a "
            "uniformly higher latency"
        ),
        headers=["benchmark", "base CPI", "binning@5", "binning@6"],
        rows=rows,
        notes=[
            "Paper averages: 6.42% (one extra cycle), 12.62% (two).",
            "The two-cycle bin should cost roughly twice the one-cycle bin.",
        ],
        data={"series": series},
    )
