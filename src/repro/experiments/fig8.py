"""Figure 8 — normalized leakage vs access latency scatter.

The paper plots, for the 2000 simulated caches, each chip's total leakage
power (normalized to the population average) against its access latency,
showing the wide leakage spread and the inverse leakage/delay correlation
(fast chips leak). We regenerate the same scatter, summarise it as an
ASCII density grid, and report the correlation and the chips beyond the
nominal limits.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

from repro.core import units
from repro.experiments.common import ExperimentResult, ExperimentSettings

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run", "density_grid"]

_GRID_COLS = 48
_GRID_ROWS = 14
_SHADES = " .:-=+*#%@"


def density_grid(xs: List[float], ys: List[float]) -> str:
    """Render points as an ASCII density grid (y axis increasing upward)."""
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    counts = [[0] * _GRID_COLS for _ in range(_GRID_ROWS)]
    for x, y in zip(xs, ys):
        col = min(int((x - xmin) / xspan * _GRID_COLS), _GRID_COLS - 1)
        row = min(int((y - ymin) / yspan * _GRID_ROWS), _GRID_ROWS - 1)
        counts[row][col] += 1
    peak = max(max(row) for row in counts) or 1
    lines = []
    for row in reversed(counts):
        line = "".join(
            _SHADES[min(int(math.sqrt(c / peak) * (len(_SHADES) - 1)), len(_SHADES) - 1)]
            for c in row
        )
        lines.append("|" + line + "|")
    return "\n".join(lines)


def run(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Regenerate the Figure 8 scatter for the regular architecture."""
    pop = engine.population(settings)
    norm_leak, delays = pop.scatter(horizontal=False)
    delays_ns = [units.to_ns(d) for d in delays]

    n = len(norm_leak)
    mean_delay = sum(delays_ns) / n
    mx = sum(norm_leak) / n
    cov = sum((x - mx) * (y - mean_delay) for x, y in zip(norm_leak, delays_ns)) / n
    sx = math.sqrt(sum((x - mx) ** 2 for x in norm_leak) / n)
    sy = math.sqrt(sum((y - mean_delay) ** 2 for y in delays_ns) / n)
    corr = cov / (sx * sy) if sx and sy else 0.0

    delay_limit_ns = units.to_ns(pop.constraints.delay_limit)
    leak_violators = sum(1 for x in norm_leak if x > 3.0)
    delay_violators = sum(1 for y in delays_ns if y > delay_limit_ns)

    rows = [
        ["chips", n],
        ["normalized leakage: max", round(max(norm_leak), 2)],
        ["normalized leakage: p99", round(sorted(norm_leak)[int(0.99 * n)], 2)],
        ["access latency (ns): mean", round(mean_delay, 3)],
        ["access latency (ns): sigma/mean", round(sy / mean_delay, 3)],
        ["corr(normalized leakage, latency)", round(corr, 3)],
        ["chips beyond 3x average leakage", leak_violators],
        ["chips beyond delay limit (mean+sigma)", delay_violators],
    ]
    grid = density_grid(delays_ns, norm_leak)
    return ExperimentResult(
        experiment="fig8",
        title="Figure 8: normalized leakage vs cache access latency (scatter)",
        headers=["statistic", "value"],
        rows=rows,
        notes=[
            "Density grid (x: latency, y: normalized leakage; darker = more chips):",
            grid,
            "The fast tail leaks (inverse correlation), as in the paper's Figure 8.",
        ],
        data={
            "normalized_leakage": norm_leak,
            "latency_ns": delays_ns,
            "correlation": corr,
        },
    )
