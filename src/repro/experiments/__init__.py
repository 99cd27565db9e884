"""Experiment harness: one module per paper table/figure.

Each experiment module exposes ``run(settings, engine) ->
ExperimentResult``; the registry in :mod:`repro.experiments.runner` maps
experiment ids (``fig8``, ``table2``, ...) to them. Results carry both
structured rows (for tests and downstream analysis) and rendered text in
the shape the paper prints.

Population-level inputs (the 2000-chip Monte Carlo, the per-benchmark
pipeline runs) are memoised per settings in the engine the experiments
are handed, so running ``table2`` after ``fig8`` on one engine reuses the
same simulated chips, exactly like the paper derives all of Section 5.1
from one HSPICE campaign.
"""

from repro.experiments.common import ExperimentResult, ExperimentSettings
from repro.experiments.runner import (
    EXPERIMENTS,
    available_experiments,
    run_experiment,
)

__all__ = [
    "ExperimentResult",
    "ExperimentSettings",
    "EXPERIMENTS",
    "available_experiments",
    "run_experiment",
]
