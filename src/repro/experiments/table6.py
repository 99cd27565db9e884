"""Table 6 — performance degradation per saved cache configuration.

For every way-latency configuration the paper's Monte Carlo converted
from loss to gain (``a-b-c`` = a ways at 4 cycles, b at 5, c at 6+), the
table reports how often it occurred (the Hybrid-saved chip census) and
the average SPEC2000 CPI degradation each scheme pays to save it:

* YAPD saves configurations with at most one slow way by disabling it:
  performance is the 3-way all-4-cycle cache (one number).
* VACA saves configurations without 6+ ways by running b ways at 5
  cycles.
* Hybrid behaves like VACA when possible and otherwise disables the
  (single) 6+ way, leaving the rest at up to 5 cycles.

The bottom row reproduces the paper's weighted sums: each scheme's
average degradation over the chips *it* saves, weighting configurations
by their frequency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSettings,
    benchmark_names,
)
from repro.schemes import Hybrid
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

if TYPE_CHECKING:
    from repro.engine import Engine

__all__ = ["run", "CONFIG_ORDER", "config_way_cycles", "average_degradation"]

#: Table 6 row order (paper's ordering).
CONFIG_ORDER: Tuple[str, ...] = (
    "3-1-0",
    "2-2-0",
    "1-3-0",
    "0-4-0",
    "3-0-1",
    "2-1-1",
    "1-2-1",
    "0-3-1",
    "4-0-0",
)

#: Paper's Table 6 degradations [%] per (config, scheme); None = N/A.
PAPER_TABLE6: Dict[str, Tuple[Optional[float], Optional[float], Optional[float]]] = {
    "3-1-0": (1.08, 1.81, 1.81),
    "2-2-0": (None, 3.32, 3.32),
    "1-3-0": (None, 5.47, 5.47),
    "0-4-0": (None, 6.42, 6.42),
    "3-0-1": (1.08, None, 1.08),
    "2-1-1": (None, None, 3.65),
    "1-2-1": (None, None, 5.49),
    "0-3-1": (None, None, 7.39),
    "4-0-0": (1.08, None, 1.08),
}


def _parse(config: str) -> Tuple[int, int, int]:
    a, b, c = (int(part) for part in config.split("-"))
    return a, b, c


def config_way_cycles(
    config: str, scheme: str
) -> Optional[Tuple[Optional[int], ...]]:
    """Post-rescue way latencies for ``scheme`` on ``config`` (None = N/A).

    Disabled ways are ``None`` entries; the 6+ way is the one Hybrid
    disables.
    """
    a, b, c = _parse(config)
    four, five = BASE_ACCESS_CYCLES, BASE_ACCESS_CYCLES + 1
    if scheme == "YAPD":
        # One slow-or-leaky way may be disabled; the rest must be fast.
        if b + c > 1 or a < 3:
            return None
        if b + c == 1:
            return (four,) * a + (None,)
        return (four, four, four, None)  # 4-0-0: drop the leakiest way
    if scheme == "VACA":
        if c > 0 or (a == 4 and b == 0):
            return None
        return (four,) * a + (five,) * b
    if scheme == "Hybrid":
        if c > 1:
            return None
        if c == 1:
            return (four,) * a + (five,) * b + (None,)
        if a == 4 and b == 0:
            return (four, four, four, None)  # leakage-limited chip
        return (four,) * a + (five,) * b
    raise ValueError(f"unknown scheme {scheme!r}")


def average_degradation(
    settings: ExperimentSettings,
    engine: Engine,
    way_cycles: Tuple[Optional[int], ...],
) -> float:
    """Mean fractional CPI degradation of a configuration over the suite."""
    degs = []
    for name in benchmark_names(settings):
        base = engine.simulate(settings, name)
        result = engine.simulate(settings, name, way_cycles=way_cycles)
        degs.append(result.degradation_vs(base))
    return sum(degs) / len(degs)


def run(settings: ExperimentSettings, engine: Engine) -> ExperimentResult:
    """Regenerate Table 6."""
    pop = engine.population(settings)
    census = pop.configuration_census(Hybrid(), horizontal=False)

    schemes = ("YAPD", "VACA", "Hybrid")

    # Prefetch every distinct (benchmark, way-config) simulation the table
    # needs — plus the healthy baselines — as one parallel batch.
    needed = {
        cycles
        for config in CONFIG_ORDER
        for scheme in schemes
        if (cycles := config_way_cycles(config, scheme)) is not None
    }
    engine.simulate_many(
        settings,
        [(name, None, None) for name in benchmark_names(settings)]
        + [
            (name, cycles, None)
            for cycles in sorted(needed, key=str)
            for name in benchmark_names(settings)
        ],
    )

    deg_cache: Dict[Tuple[Optional[int], ...], float] = {}

    def deg_for(config: str, scheme: str) -> Optional[float]:
        cycles = config_way_cycles(config, scheme)
        if cycles is None:
            return None
        if cycles not in deg_cache:
            deg_cache[cycles] = average_degradation(settings, engine, cycles)
        return deg_cache[cycles]

    rows: List[List[object]] = []
    table: Dict[str, Dict[str, Optional[float]]] = {}
    for config in CONFIG_ORDER:
        count = census.get(config, 0)
        entry = {scheme: deg_for(config, scheme) for scheme in schemes}
        table[config] = entry
        rows.append(
            [config, count]
            + [
                "N/A" if entry[s] is None else round(entry[s] * 100, 2)
                for s in schemes
            ]
        )

    # Weighted sums over each scheme's own saved chips.
    weighted: Dict[str, float] = {}
    for scheme in schemes:
        saved = [
            (config, census.get(config, 0))
            for config in CONFIG_ORDER
            if table[config][scheme] is not None and census.get(config, 0) > 0
        ]
        total = sum(count for _, count in saved)
        weighted[scheme] = (
            sum(table[config][scheme] * count for config, count in saved) / total
            if total
            else 0.0
        )
    rows.append(
        ["weighted sum", sum(census.values())]
        + [round(weighted[s] * 100, 2) for s in schemes]
    )

    return ExperimentResult(
        experiment="table6",
        title=(
            "Table 6: performance degradation [%] per saved cache "
            "configuration (chip frequency from the Monte Carlo census)"
        ),
        headers=["config 4-5-6+", "# chips", "YAPD", "VACA", "Hybrid"],
        rows=rows,
        notes=[
            "Paper weighted sums: YAPD 1.08%, VACA 2.20%, Hybrid 1.83%.",
            "Paper per-config values: "
            + "; ".join(
                f"{cfg} {vals}" for cfg, vals in PAPER_TABLE6.items()
            ),
        ],
        data={"census": census, "degradations": table, "weighted": weighted},
    )
