"""The per-chip classification before its leakage facts were cached.

``ChipCase`` is the original class verbatim: it recomputes
``leakage_violation`` and ``passes`` from the circuit on every read.
``way_leakages`` and ``total_leakage`` are added as uncached properties
over the circuit, because the schemes now read them from the case.
``cycles_for_delay``, ``meets_delay`` and ``meets_leakage`` are the
original scalar ``YieldConstraints`` methods as functions of the
constraints, so this classification shares no line of its rule with
production's ``cycles_for_delays``. ``measure_ways``,
``MeasuredChipCase`` and ``yield_with_sensor`` are the original
per-chip sensor layer, built on this ``ChipCase`` (measured totals add
left to right, as every leakage total does); ``yield_with_sensor``
judges a believed save as production does, by the true leakage of the
way it gates off. ``PopulationResult`` is the original per-chip
population result. The per-chip circuit helpers only the oracles read
(``delay_without_band``, ``critical_band``, ``band_array_leakage`` and
``total_peripheral_leakage``) are the original methods as functions.
Never imported by ``src/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import spawn
from repro.schemes.sensors import LeakageSensor
from repro.yieldmodel.analysis import LossBreakdown
from repro.yieldmodel.classify import LossReason, config_key
from repro.yieldmodel.constraints import (
    BASE_ACCESS_CYCLES,
    ConstraintPolicy,
    NOMINAL_POLICY,
    YieldConstraints,
)

from .circuit import CacheCircuitResult, WayCircuitResult, circuit

if TYPE_CHECKING:
    from repro.schemes.base import Scheme

__all__ = [
    "ChipCase",
    "MeasuredChipCase",
    "PopulationResult",
    "band_array_leakage",
    "critical_band",
    "cycles_for_delay",
    "delay_without_band",
    "measure_ways",
    "meets_delay",
    "meets_leakage",
    "total_peripheral_leakage",
    "yield_with_sensor",
]


def cycles_for_delay(constraints: YieldConstraints, delay: float) -> int:
    """Access cycles a path of the given delay (s) needs.

    4 cycles within the limit; one more cycle per additional quarter
    of the limit (the access is pipelined over equal cycle slices).
    """
    if delay <= 0:
        raise ConfigurationError(f"delay must be > 0, got {delay}")
    if delay <= constraints.delay_limit:
        return BASE_ACCESS_CYCLES
    slice_time = constraints.delay_limit / BASE_ACCESS_CYCLES
    return int(math.ceil(delay / slice_time - 1e-12))


def meets_delay(constraints: YieldConstraints, delay: float) -> bool:
    """True when the delay fits the 4-cycle design latency."""
    return delay <= constraints.delay_limit


def meets_leakage(constraints: YieldConstraints, leakage: float) -> bool:
    """True when the total leakage fits the power limit."""
    return leakage <= constraints.leakage_limit


def delay_without_band(way: WayCircuitResult, band: int) -> float:
    """Way delay (s) if horizontal band ``band`` were powered down."""
    remaining = [d for i, d in enumerate(way.band_delays) if i != band]
    if not remaining:
        raise ConfigurationError("cannot power down the only band of a way")
    return max(remaining)


def critical_band(way: WayCircuitResult) -> int:
    """Index of the band holding this way's critical path."""
    return max(range(len(way.band_delays)), key=lambda i: way.band_delays[i])


def band_array_leakage(circuit: CacheCircuitResult, band: int) -> float:
    """Array leakage (W) of horizontal band ``band`` summed over ways."""
    return reduce(add, (way.band_leakage[band] for way in circuit.ways), 0.0)


def total_peripheral_leakage(circuit: CacheCircuitResult) -> float:
    """Leakage (W) of all way peripheries."""
    return reduce(add, (way.peripheral_leakage for way in circuit.ways), 0.0)


def measure_ways(
    sensor: LeakageSensor, chip_id: int, true_values: Tuple[float, ...]
) -> Tuple[float, ...]:
    """Measured per-way leakage for one chip (deterministic per chip)."""
    rng = spawn(sensor.seed, f"sensor-{chip_id}")
    noisy = [
        value * float(np.exp(rng.normal(0.0, sensor.relative_noise)))
        for value in true_values
    ]
    if not sensor.quantisation_levels:
        return tuple(noisy)
    step = max(noisy) / sensor.quantisation_levels or 1.0
    return tuple(round(value / step) * step for value in noisy)


@dataclass(frozen=True)
class ChipCase:
    """One manufactured chip held against a set of yield constraints."""

    circuit: CacheCircuitResult
    constraints: YieldConstraints

    # ------------------------------------------------------------------
    # uncached facts the schemes read (not on the original class)
    # ------------------------------------------------------------------
    @property
    def way_leakages(self) -> Tuple[float, ...]:
        return self.circuit.way_leakages

    @property
    def total_leakage(self) -> float:
        return self.circuit.total_leakage

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    @cached_property
    def way_cycles(self) -> Tuple[int, ...]:
        """Access cycles each way needs at the binned frequency."""
        return tuple(
            cycles_for_delay(self.constraints, d)
            for d in self.circuit.way_delays
        )

    @cached_property
    def delay_violating_ways(self) -> Tuple[int, ...]:
        """Indices of ways that miss the 4-cycle design latency."""
        return tuple(
            w
            for w, d in enumerate(self.circuit.way_delays)
            if not meets_delay(self.constraints, d)
        )

    @property
    def leakage_violation(self) -> bool:
        """True when total leakage exceeds the power limit."""
        return not meets_leakage(self.constraints, self.circuit.total_leakage)

    @property
    def delay_violation(self) -> bool:
        """True when any way misses the 4-cycle latency."""
        return bool(self.delay_violating_ways)

    @property
    def passes(self) -> bool:
        """True when the chip needs no yield-aware scheme at all."""
        return not (self.leakage_violation or self.delay_violation)

    @cached_property
    def loss_reason(self) -> LossReason:
        """The paper's loss bucket for this chip."""
        if self.leakage_violation:
            return LossReason.LEAKAGE
        if self.delay_violation:
            return LossReason.delay(len(self.delay_violating_ways))
        return LossReason.NONE

    @cached_property
    def configuration(self) -> str:
        """Table 6 way-latency configuration key (e.g. ``"3-1-0"``)."""
        return config_key(self.way_cycles)

    # ------------------------------------------------------------------
    # helpers the schemes use
    # ------------------------------------------------------------------
    def leakage_after_disabling_way(self, way: int) -> float:
        """Total leakage (W) with one way fully gated off."""
        return self.circuit.total_leakage - self.circuit.ways[way].leakage

    def max_leakage_way(self) -> int:
        """The way with the highest total leakage (YAPD's disable choice)."""
        leakages = self.circuit.way_leakages
        return max(range(len(leakages)), key=lambda w: leakages[w])

    def way_cycles_without_band(self, band: int) -> Tuple[int, ...]:
        """Per-way cycles if horizontal band ``band`` were powered down."""
        return tuple(
            cycles_for_delay(self.constraints, delay_without_band(way, band))
            for way in self.circuit.ways
        )


class MeasuredChipCase(ChipCase):
    """A chip case whose *leakage readings* come through a sensor.

    Delay classification is unchanged (speed paths are characterised by
    the tester's clock sweep, which is precise); only the leakage-driven
    decisions — which way is leakiest, whether a rescue's residual
    leakage passes — are taken on measured values. The true case remains
    available as ``truth`` for verdicts.
    """

    def __init__(self, truth: ChipCase, sensor: LeakageSensor) -> None:
        super().__init__(circuit=truth.circuit, constraints=truth.constraints)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "sensor", sensor)

    @cached_property
    def measured_way_leakage(self) -> Tuple[float, ...]:
        return measure_ways(
            self.sensor, self.circuit.chip_id, self.circuit.way_leakages
        )

    def max_leakage_way(self) -> int:
        measured = self.measured_way_leakage
        return max(range(len(measured)), key=lambda w: measured[w])

    def leakage_after_disabling_way(self, way: int) -> float:
        measured = self.measured_way_leakage
        return reduce(add, measured, 0.0) - measured[way]


def yield_with_sensor(cases, scheme, sensor: LeakageSensor):
    """Rescue rate of ``scheme`` when decisions go through ``sensor``.

    Returns ``(decisions_saved, actually_saved)``: chips the scheme
    *believed* it saved, and the subset whose true leakage and delay meet
    the limits after the chosen action. The gap is the sensor's cost.
    Only the gated-way readings are measured, so a believed save is
    actual unless the way it gates off truly leaks past the limit.
    """
    believed = 0
    actual = 0
    for case in cases:
        if case.passes:
            continue
        measured = MeasuredChipCase(case, sensor)
        outcome = scheme.rescue(measured)
        if not outcome.saved:
            continue
        believed += 1
        if outcome.disabled_way is None or meets_leakage(
            case.constraints,
            case.leakage_after_disabling_way(outcome.disabled_way),
        ):
            actual += 1
    return believed, actual


@dataclass
class PopulationResult:
    """All per-chip cases of one Monte Carlo population.

    The original population result: ``breakdown``,
    ``configuration_census``, ``scatter`` and ``reconstrained`` are
    verbatim, over this module's ``ChipCase``, except that ``breakdown``
    publishes no estimator gauges and the scatter's mean adds left to
    right (what ``sum()`` computed before Python 3.12).
    """

    constraints: YieldConstraints
    cases: List[ChipCase]
    h_cases: List[ChipCase]
    policy: ConstraintPolicy = NOMINAL_POLICY

    @classmethod
    def of(cls, pop) -> "PopulationResult":
        """The oracle form of a production (columnar) population."""
        return cls(
            constraints=pop.constraints,
            cases=[
                ChipCase(circuit(pop.regular, i), pop.constraints)
                for i in range(pop.population)
            ],
            h_cases=[
                ChipCase(circuit(pop.horizontal, i), pop.constraints)
                for i in range(pop.population)
            ],
            policy=pop.policy,
        )

    @property
    def population(self) -> int:
        return len(self.cases)

    def select(self, horizontal: bool) -> List[ChipCase]:
        """The regular- or H-YAPD-architecture cases."""
        return self.h_cases if horizontal else self.cases

    def reconstrained(self, policy: ConstraintPolicy) -> "PopulationResult":
        """Re-derive limits under another policy over the *same* chips.

        Tables 4 and 5 change the constraints without re-manufacturing
        the population; limits are always derived from the regular
        architecture's delays (the design constraint both architectures
        are held to).
        """
        constraints = policy.derive(
            [case.circuit.access_delay for case in self.cases],
            [case.total_leakage for case in self.cases],
        )
        return PopulationResult(
            constraints=constraints,
            cases=[
                ChipCase(circuit=case.circuit, constraints=constraints)
                for case in self.cases
            ],
            h_cases=[
                ChipCase(circuit=case.circuit, constraints=constraints)
                for case in self.h_cases
            ],
            policy=policy,
        )

    # ------------------------------------------------------------------
    def breakdown(
        self,
        schemes: Sequence["Scheme"],
        horizontal: bool = False,
    ) -> LossBreakdown:
        """Build a Tables 2/3-style loss breakdown for ``schemes``."""
        cases = self.select(horizontal)
        base_counts: Dict[LossReason, int] = {}
        for case in cases:
            reason = case.loss_reason
            if reason is not LossReason.NONE:
                base_counts[reason] = base_counts.get(reason, 0) + 1

        scheme_losses: Dict[str, Dict[LossReason, int]] = {}
        for scheme in schemes:
            losses: Dict[LossReason, int] = {}
            for case in cases:
                reason = case.loss_reason
                if reason is LossReason.NONE:
                    continue
                if not scheme.rescue(case).saved:
                    losses[reason] = losses.get(reason, 0) + 1
            scheme_losses[scheme.name] = losses
        return LossBreakdown(
            base_counts=base_counts,
            scheme_losses=scheme_losses,
            population=len(cases),
        )

    def configuration_census(
        self, scheme: "Scheme", horizontal: bool = False
    ) -> Dict[str, int]:
        """Count saved-from-loss chips per Table 6 configuration key.

        Only chips converted from yield loss to yield gain are counted
        (chips that pass outright never engage a scheme).
        """
        census: Dict[str, int] = {}
        for case in self.select(horizontal):
            if case.passes:
                continue
            outcome = scheme.rescue(case)
            if outcome.saved:
                census[outcome.configuration] = (
                    census.get(outcome.configuration, 0) + 1
                )
        return census

    def scatter(
        self, horizontal: bool = False
    ) -> Tuple[List[float], List[float]]:
        """Figure 8 data: (normalized leakage, access delay in seconds).

        Leakage is normalized to the population average, matching the
        paper's "normalized leakage power" axis.
        """
        cases = self.select(horizontal)
        leakages = [case.total_leakage for case in cases]
        mean = reduce(add, leakages, 0.0) / len(leakages)
        delays = [case.circuit.access_delay for case in cases]
        return [leak / mean for leak in leakages], delays
