"""Experiment registry and front door.

Maps experiment ids to their run functions, each called as
``run(settings, engine)``: populations, estimates and simulations come
from the engine it is handed. The CLI, the server and the benchmark
harness go through :func:`run_experiment`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.engine import Engine, get_engine
from repro.experiments import estimators, fig1, fig8, sec42, sensor_study
from repro.experiments.designspace import (
    run_ablation_assoc,
    run_ablation_temperature,
)
from repro.experiments.ablations import run_ablation_corr, run_ablation_lbb
from repro.experiments.common import ExperimentResult, ExperimentSettings
from repro.experiments.losstables import (
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.percpi import run_fig9, run_fig10, run_sec45
from repro.experiments import table6

__all__ = ["EXPERIMENTS", "available_experiments", "run_experiment"]

#: Experiment id -> run function. ``fig1`` and the sweeps that build
#: their own ``YieldStudy`` per point (``ablation_corr``,
#: ``ablation_assoc``, ``ablation_temperature``) leave the engine
#: unused: their points are not engine jobs, so they are neither memoised
#: nor stored.
EXPERIMENTS: Dict[
    str, Callable[[ExperimentSettings, Engine], ExperimentResult]
] = {
    "fig1": fig1.run,
    "fig8": fig8.run,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": table6.run,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "sec42": sec42.run,
    "sec45": run_sec45,
    "ablation_corr": run_ablation_corr,
    "ablation_lbb": run_ablation_lbb,
    "ablation_sensor": sensor_study.run,
    "ablation_assoc": run_ablation_assoc,
    "ablation_temperature": run_ablation_temperature,
    "estimators": estimators.run,
}


def available_experiments() -> List[str]:
    """All experiment ids, in presentation order."""
    return list(EXPERIMENTS)


def run_experiment(
    name: str,
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[Engine] = None,
) -> ExperimentResult:
    """Run one experiment by id on ``engine``."""
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        )
    if settings is None:
        settings = ExperimentSettings()
    if engine is None:
        # perfbench/passes.py builds the process-wide engine with
        # configure_engine(), calls this two-argument form and then reads
        # that engine's stats and memo. This default goes once the
        # harness passes its engine.
        engine = get_engine()
    # Book the experiment's wall time as an engine stage so both
    # `repro run --stats` and `repro trace summary` (the stage timer
    # emits a `stage:experiment:<name>` span) break a run down per
    # artefact.
    engine.metrics.counter(f"experiment.runs.{name}").inc()
    with engine.stats.stage(f"experiment:{name}"):
        return EXPERIMENTS[name](settings, engine)
