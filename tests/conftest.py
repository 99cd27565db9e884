"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import os
from typing import Optional, Sequence, Tuple

import pytest

from repro.circuit.cache_model import CacheCircuitResult, WayCircuitResult
from repro.circuit.columnar import CircuitColumns
from repro.engine import reset_engine
from repro.yieldmodel.analysis import PopulationResult
from repro.yieldmodel.classify import ChipCase
from repro.yieldmodel.constraints import YieldConstraints


@pytest.fixture(scope="session", autouse=True)
def _isolated_engine(tmp_path_factory):
    """Keep the engine's persistent store out of the working tree.

    Tests get a per-session cache directory, so runs stay hermetic (no
    stale `.repro_cache/` entries from older code) while populations
    computed early in the session are still reused by later modules.
    """
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    reset_engine()
    yield
    reset_engine()


def make_way(
    way: int,
    band_delays: Sequence[float],
    band_leakage: Optional[Sequence[float]] = None,
    peripheral: float = 1e-4,
) -> WayCircuitResult:
    """Build a synthetic way result (delays in seconds, leakage in watts)."""
    if band_leakage is None:
        band_leakage = [1e-3 for _ in band_delays]
    return WayCircuitResult(
        way=way,
        band_delays=tuple(band_delays),
        band_leakage=tuple(band_leakage),
        peripheral_leakage=peripheral,
    )


def make_chip(
    way_delays: Sequence[float],
    way_leakages: Optional[Sequence[float]] = None,
    delay_limit: float = 1.0,
    leakage_limit: float = 1.0,
    num_bands: int = 4,
    band_profiles: Optional[Sequence[Sequence[float]]] = None,
    chip_id: int = 0,
) -> ChipCase:
    """Build a synthetic chip case.

    By default every way has uniform bands at its ``way_delays`` entry and
    evenly split leakage summing to ``way_leakages``. ``band_profiles``
    overrides per-way band delays for H-YAPD tests.
    """
    if way_leakages is None:
        way_leakages = [leakage_limit / (2 * len(way_delays))] * len(way_delays)
    ways = []
    for w, delay in enumerate(way_delays):
        if band_profiles is not None:
            delays = band_profiles[w]
        else:
            delays = [delay] * num_bands
        periph = way_leakages[w] * 0.1
        per_band = (way_leakages[w] - periph) / num_bands
        ways.append(
            make_way(
                w,
                delays,
                band_leakage=[per_band] * num_bands,
                peripheral=periph,
            )
        )
    circuit = CacheCircuitResult(chip_id=chip_id, ways=tuple(ways))
    constraints = YieldConstraints(
        delay_limit=delay_limit, leakage_limit=leakage_limit
    )
    return ChipCase(circuit=circuit, constraints=constraints)


def make_population(chips: Sequence[ChipCase]) -> PopulationResult:
    """A population of synthetic chips (both architectures alike).

    The chips must share their limits and their ways/bands shape;
    chip ids are renumbered in list order.
    """
    columns = CircuitColumns.from_circuits(
        [case.circuit._replace(chip_id=i) for i, case in enumerate(chips)]
    )
    return PopulationResult(chips[0].constraints, columns, columns)


@pytest.fixture
def healthy_chip() -> ChipCase:
    """A chip comfortably inside both limits."""
    return make_chip([0.9, 0.9, 0.9, 0.9])


@pytest.fixture
def one_slow_way_chip() -> ChipCase:
    """Config 3-1-0: one way needs 5 cycles."""
    return make_chip([0.9, 0.9, 0.9, 1.2])


@pytest.fixture
def leaky_chip() -> ChipCase:
    """Leakage violation with fast ways."""
    return make_chip(
        [0.9, 0.9, 0.9, 0.9], way_leakages=[0.2, 0.2, 0.2, 0.5]
    )
