"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import os
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.circuit.columnar import CircuitColumns
from repro.engine import reset_engine
from repro.schemes.base import Decisions
from repro.yieldmodel.analysis import PopulationResult
from repro.yieldmodel.classify import ChipColumns, LossReason, config_key
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


def make_chip(
    way_delays: Sequence[float],
    way_leakages: Optional[Sequence[float]] = None,
    delay_limit: float = 1.0,
    leakage_limit: float = 1.0,
    num_bands: int = 4,
    band_profiles: Optional[Sequence[Sequence[float]]] = None,
    chip_id: int = 0,
) -> ChipColumns:
    """A synthetic chip as one classified row (delays in seconds,
    leakage in watts).

    By default every way has uniform bands at its ``way_delays`` entry and
    evenly split leakage summing to ``way_leakages``, a tenth of it
    peripheral. ``band_profiles`` overrides per-way band delays for
    H-YAPD tests.
    """
    ways = len(way_delays)
    if way_leakages is None:
        way_leakages = [leakage_limit / (2 * ways)] * ways
    if band_profiles is None:
        band_profiles = [[delay] * num_bands for delay in way_delays]
    peripheral = [leakage * 0.1 for leakage in way_leakages]
    band_leakage = [
        [(leakage - periph) / num_bands] * num_bands
        for leakage, periph in zip(way_leakages, peripheral)
    ]
    circuits = CircuitColumns(
        [chip_id],
        np.array([band_profiles], dtype=float),
        np.array([band_leakage]),
        np.array([peripheral]),
    )
    constraints = YieldConstraints(
        delay_limit=delay_limit, leakage_limit=leakage_limit
    )
    return ChipColumns(circuits, constraints)


def make_population(chips: Sequence[ChipColumns]) -> PopulationResult:
    """A population of synthetic chips (both architectures alike).

    The chips must share their limits and their ways/bands shape;
    chip ids are renumbered in list order.
    """
    columns = CircuitColumns(
        range(len(chips)),
        np.concatenate([chip.circuits.band_delays for chip in chips]),
        np.concatenate([chip.circuits.band_leakage for chip in chips]),
        np.concatenate([chip.circuits.peripheral_leakage for chip in chips]),
    )
    return PopulationResult(chips[0].constraints, columns, columns)


class DecisionRow(NamedTuple):
    """One chip's decision: ``way_cycles`` has ``None`` for a disabled
    way; a lost chip is ``(False, None, None, None)``."""

    saved: bool
    disabled_way: Optional[int]
    disabled_band: Optional[int]
    way_cycles: Optional[Tuple[Optional[int], ...]]


def decision_row(decided: Decisions, index: int = 0) -> DecisionRow:
    """Row ``index`` of ``decided``."""
    if not decided.saved[index]:
        return DecisionRow(False, None, None, None)
    way = int(decided.disabled_way[index])
    band = int(decided.disabled_band[index])
    return DecisionRow(
        True,
        None if way < 0 else way,
        None if band < 0 else band,
        tuple(c or None for c in decided.way_cycles[index].tolist()),
    )


def loss_reason(chips: ChipColumns, index: int = 0) -> LossReason:
    """Row ``index``'s loss bucket: leakage first, then the number of
    delay-violating ways."""
    if chips.passes[index]:
        return LossReason.NONE
    if chips.leakage_violation[index]:
        return LossReason.LEAKAGE
    return LossReason.delay(int(chips.delay_violations[index].sum()))


def configuration(chips: ChipColumns, index: int = 0) -> str:
    """Row ``index``'s Table 6 configuration key."""
    return config_key(chips.way_cycles[index].tolist())


@pytest.fixture
def healthy_chip() -> ChipColumns:
    """A chip comfortably inside both limits."""
    return make_chip([0.9, 0.9, 0.9, 0.9])


@pytest.fixture
def one_slow_way_chip() -> ChipColumns:
    """Config 3-1-0: one way needs 5 cycles."""
    return make_chip([0.9, 0.9, 0.9, 1.2])


@pytest.fixture
def leaky_chip() -> ChipColumns:
    """Leakage violation with fast ways."""
    return make_chip(
        [0.9, 0.9, 0.9, 0.9], way_leakages=[0.2, 0.2, 0.2, 0.5]
    )
