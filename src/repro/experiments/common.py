"""Shared experiment infrastructure.

:class:`ExperimentSettings` carries everything that identifies a
reproduction run: the Monte Carlo seed and population size, and the
pipeline-simulation trace lengths. Environment variables provide coarse
scaling without touching code:

* ``REPRO_CHIPS`` — Monte Carlo population (default 2000, the paper's).
* ``REPRO_TRACE`` — measured instructions per benchmark run.
* ``REPRO_WARMUP`` — cache-warmup instructions per run.
* ``REPRO_BENCHMARKS`` — comma-separated benchmark subset.
* ``REPRO_SEED`` — experiment seed.

The expensive inputs — the evaluated chip population and per-benchmark
pipeline results — come from the :class:`~repro.engine.Engine` each
experiment is handed (``engine.population``, ``engine.simulate``,
``engine.simulate_many``, ``engine.estimate``): parallel across worker
processes, memoised in that engine, and persisted in its store so
repeated runs skip completed work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.validation import env_int, require_positive
from repro.schemes import Hybrid, HybridHorizontal, HYAPD, VACA, YAPD
from repro.workloads import SPEC2000_ALL, get_profile

__all__ = [
    "ExperimentSettings",
    "ExperimentResult",
    "render_table",
    "benchmark_names",
    "scheme_set",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Identity of one reproduction run."""

    seed: int = field(default_factory=lambda: env_int("REPRO_SEED", 2006))
    chips: int = field(default_factory=lambda: env_int("REPRO_CHIPS", 2000))
    trace_length: int = field(
        default_factory=lambda: env_int("REPRO_TRACE", 30_000)
    )
    warmup: int = field(default_factory=lambda: env_int("REPRO_WARMUP", 20_000))
    benchmarks: Optional[Tuple[str, ...]] = field(
        default_factory=lambda: (
            tuple(os.environ["REPRO_BENCHMARKS"].split(","))
            if os.environ.get("REPRO_BENCHMARKS")
            else None
        )
    )

    def __post_init__(self) -> None:
        if self.chips < 2:
            raise ConfigurationError(
                "need at least two chips to derive population limits, "
                f"got {self.chips}"
            )
        require_positive(self.trace_length, "trace_length")
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {self.warmup}")
        if self.benchmarks is not None:
            # Validate eagerly: an unknown name raises ConfigurationError
            # here instead of deep inside an experiment run.
            for name in self.benchmarks:
                get_profile(name)


@dataclass
class ExperimentResult:
    """Outcome of one experiment: structured rows plus rendered text."""

    experiment: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def text(self) -> str:
        """Rendered table plus notes."""
        body = render_table(self.headers, self.rows)
        parts = [f"== {self.title} ==", body]
        parts.extend(self.notes)
        return "\n".join(parts)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width ASCII table."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    table = [list(map(fmt, headers))] + [list(map(fmt, row)) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(table):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if r == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def benchmark_names(settings: ExperimentSettings) -> List[str]:
    """The benchmark subset this run simulates."""
    if settings.benchmarks is not None:
        return [get_profile(name).name for name in settings.benchmarks]
    return [profile.name for profile in SPEC2000_ALL]


def scheme_set(horizontal: bool = False):
    """The scheme instances a loss table compares (paper column order)."""
    if horizontal:
        return [HYAPD(), VACA(), HybridHorizontal()]
    return [YAPD(), VACA(), Hybrid()]
