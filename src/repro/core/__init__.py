"""Shared primitives used across the reproduction.

This subpackage deliberately contains no domain logic: it provides the
exception hierarchy, unit constants, deterministic RNG plumbing and small
validation helpers that every other subpackage builds on.
"""

from repro.core.errors import (
    ReproError,
    ConfigurationError,
    CalibrationError,
    SimulationError,
    TraceError,
)
from repro.core.rng import derive_seed, spawn
from repro.core import units

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CalibrationError",
    "SimulationError",
    "TraceError",
    "derive_seed",
    "spawn",
    "units",
]
