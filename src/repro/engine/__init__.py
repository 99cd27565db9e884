"""Parallel execution engine with a persistent result store.

The engine is the single path every experiment's expensive work goes
through: Monte Carlo populations and pipeline simulations are sharded
over a process pool (``REPRO_WORKERS`` / ``repro run --workers``),
memoised in-process, and persisted content-addressed under
``.repro_cache/`` so repeated runs — across processes — skip completed
work entirely. See :mod:`repro.engine.core` for the configuration knobs.
"""

from repro.engine.core import (
    Engine,
    EngineConfig,
    SimulationSpec,
    configure_engine,
    get_engine,
)
from repro.engine.executor import ShardedExecutor
from repro.engine.stats import EngineStats
from repro.engine.store import ResultStore, SCHEMA_VERSION

__all__ = [
    "Engine",
    "EngineConfig",
    "EngineStats",
    "ResultStore",
    "SCHEMA_VERSION",
    "ShardedExecutor",
    "SimulationSpec",
    "configure_engine",
    "get_engine",
]
