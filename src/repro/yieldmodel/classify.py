"""Per-chip yield classification (paper Tables 2, 3 and 6).

A :class:`ChipCase` binds one evaluated cache to a set of constraints and
derives everything the schemes and the tables need: per-way access cycles,
the delay-violating ways, the leakage verdict, the loss reason bucket, and
the "a-b-c" way-latency configuration key of Table 6 (a ways at 4 cycles,
b at 5, c at 6 or more). :class:`ChipColumns` holds them for a whole
population, with the two leakage readings the schemes decide on (true
by default, measured in the sensor study); a :class:`ChipCase` is the
one-chip view of a row.

Bucket semantics follow the paper's tables: a chip that violates the
leakage limit is counted under "Leakage Constraint" whether or not it also
has delay trouble (Table 6's 4-0-0 row, "leakage power limited caches that
did not violate the timing requirements", accounts for 105 + 33 = all 138
leakage-bucket chips, which fixes this reading); the "Delay Constraint
(N ways)" buckets hold chips that violate delay only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.circuit.cache_model import CacheCircuitResult
from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES, YieldConstraints

__all__ = [
    "LossReason",
    "ChipCase",
    "ChipColumns",
    "config_key",
    "cycles_for_delays",
]

#: VACA supports exactly one extra cycle (single-entry load-bypass buffers).
VACA_MAX_CYCLES = BASE_ACCESS_CYCLES + 1


class LossReason(enum.Enum):
    """Why a chip fails parametric testing (or NONE if it passes)."""

    NONE = "passes"
    LEAKAGE = "leakage constraint"
    DELAY_1 = "delay constraint (1 way)"
    DELAY_2 = "delay constraint (2 ways)"
    DELAY_3 = "delay constraint (3 ways)"
    DELAY_4 = "delay constraint (4 ways)"
    # Higher-associativity organisations (the associativity ablation) can
    # have more violating ways than the paper's 4-way cache.
    DELAY_5 = "delay constraint (5 ways)"
    DELAY_6 = "delay constraint (6 ways)"
    DELAY_7 = "delay constraint (7 ways)"
    DELAY_8 = "delay constraint (8 ways)"

    @staticmethod
    def delay(num_ways: int) -> "LossReason":
        """The delay bucket for ``num_ways`` violating ways."""
        try:
            return LossReason[f"DELAY_{num_ways}"]
        except KeyError:
            raise ConfigurationError(
                f"no delay bucket for {num_ways} violating ways"
            ) from None

    @property
    def is_loss(self) -> bool:
        return self is not LossReason.NONE


def config_key(way_cycles: Tuple[int, ...]) -> str:
    """Table 6 configuration key for a tuple of per-way access cycles.

    ``"3-1-0"`` means three 4-cycle ways, one 5-cycle way and no way
    needing 6 or more cycles.
    """
    n4 = sum(1 for c in way_cycles if c == BASE_ACCESS_CYCLES)
    n5 = sum(1 for c in way_cycles if c == VACA_MAX_CYCLES)
    n6 = sum(1 for c in way_cycles if c > VACA_MAX_CYCLES)
    if n4 + n5 + n6 != len(way_cycles):
        raise ConfigurationError(f"unclassifiable way cycles {way_cycles}")
    return f"{n4}-{n5}-{n6}"


@dataclass(frozen=True)
class ChipCase:
    """One manufactured chip held against a set of yield constraints."""

    circuit: CacheCircuitResult
    constraints: YieldConstraints

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    @cached_property
    def way_cycles(self) -> Tuple[int, ...]:
        """Access cycles each way needs at the binned frequency."""
        return tuple(
            self.constraints.cycles_for_delay(d) for d in self.circuit.way_delays
        )

    @cached_property
    def delay_violating_ways(self) -> Tuple[int, ...]:
        """Indices of ways that miss the 4-cycle design latency."""
        return tuple(
            w
            for w, d in enumerate(self.circuit.way_delays)
            if not self.constraints.meets_delay(d)
        )

    @cached_property
    def way_leakages(self) -> Tuple[float, ...]:
        """Total leakage power (W) of every way."""
        return self.circuit.way_leakages

    @cached_property
    def total_leakage(self) -> float:
        """Total cache leakage power (W)."""
        # Not summed from way_leakages: only rescues read those, and
        # caching the tuple on every passing chip costs memory.
        return self.circuit.total_leakage

    @cached_property
    def leakage_violation(self) -> bool:
        """True when total leakage exceeds the power limit."""
        return not self.constraints.meets_leakage(self.total_leakage)

    @property
    def delay_violation(self) -> bool:
        """True when any way misses the 4-cycle latency."""
        return bool(self.delay_violating_ways)

    @cached_property
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
        return self.total_leakage - self.way_leakages[way]

    def max_leakage_way(self) -> int:
        """The way with the highest total leakage (YAPD's disable choice)."""
        leakages = self.way_leakages
        return max(range(len(leakages)), key=lambda w: leakages[w])


def cycles_for_delays(
    delays: np.ndarray, constraints: YieldConstraints
) -> np.ndarray:
    """Elementwise :meth:`YieldConstraints.cycles_for_delay` (int array)."""
    if np.any(delays <= 0):
        raise ConfigurationError("delay must be > 0")
    slice_time = constraints.delay_limit / BASE_ACCESS_CYCLES
    stretched = np.ceil(delays / slice_time - 1e-12).astype(np.int64)
    return np.where(
        delays <= constraints.delay_limit, BASE_ACCESS_CYCLES, stretched
    )


class ChipColumns:
    """A list of :class:`ChipCase` as read-only columns, one row per chip.

    Classified from the circuit columns once, here. The two leakage
    readings the schemes decide on — ``way_gated_leakage[i, w]``
    (``leakage_after_disabling_way``) and ``leakiest_way[i]``
    (``max_leakage_way``) — default to the true values; the sensor study
    passes measured ones (:func:`repro.schemes.sensors.yield_with_sensor`).
    """

    def __init__(
        self,
        circuits: CircuitColumns,
        constraints: YieldConstraints,
        way_gated_leakage: Optional[np.ndarray] = None,
        leakiest_way: Optional[np.ndarray] = None,
    ) -> None:
        way_delays = circuits.way_delays
        total = circuits.total_leakage
        self.circuits = circuits
        self.constraints = constraints
        self.way_cycles = cycles_for_delays(way_delays, constraints)
        self.delay_violations = ~(way_delays <= constraints.delay_limit)
        self.total_leakage = total
        self.leakage_violation = ~(total <= constraints.leakage_limit)
        self.passes = ~(
            self.leakage_violation | self.delay_violations.any(axis=1)
        )
        self.way_gated_leakage = (
            total[:, None] - circuits.way_leakages
            if way_gated_leakage is None
            else way_gated_leakage
        )
        # argmax takes the first of equal maxima, as max(range, key=) does.
        self.leakiest_way = (
            circuits.way_leakages.argmax(axis=1)
            if leakiest_way is None
            else leakiest_way
        )
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @property
    def count(self) -> int:
        """Number of chips (rows)."""
        return self.passes.shape[0]

    def case(self, index: int) -> "ChipCase":
        """Chip ``index`` as a one-chip view of the row."""
        return ChipCase(self.circuits.circuit(index), self.constraints)
