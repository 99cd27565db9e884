"""Per-chip yield classification (paper Tables 2, 3 and 6).

A :class:`ChipCase` binds one evaluated cache to a set of constraints and
derives everything the schemes and the tables need: per-way access cycles,
the delay-violating ways, the leakage verdict, the loss reason bucket, and
the "a-b-c" way-latency configuration key of Table 6 (a ways at 4 cycles,
b at 5, c at 6 or more).

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
from typing import Dict, List, Tuple

import numpy as np

from repro.circuit.cache_model import CacheCircuitResult
from repro.core.errors import ConfigurationError
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES, YieldConstraints

__all__ = [
    "LossReason",
    "ChipCase",
    "config_key",
    "LEAKAGE_CODE",
    "PASS_CODE",
    "way_cycles_columns",
    "delay_violations_columns",
    "loss_codes_columns",
    "loss_reason_for_code",
    "loss_census_columns",
    "config_keys_columns",
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


# ----------------------------------------------------------------------
# column-wise classification (the columnar population fast path)
# ----------------------------------------------------------------------
#: Loss code of a leakage-limited chip in :func:`loss_codes_columns`.
LEAKAGE_CODE = -1
#: Loss code of a passing chip; positive codes count delay-violating ways.
PASS_CODE = 0


def way_cycles_columns(
    way_delays: np.ndarray, constraints: YieldConstraints
) -> np.ndarray:
    """Vectorised :meth:`YieldConstraints.cycles_for_delay`.

    ``way_delays`` is a ``(chips, ways)`` array of per-way access delays;
    the result holds each way's access-cycle count. Elementwise the
    arithmetic is the scalar method's, so every entry equals the
    per-chip classification bit for bit.
    """
    delays = np.asarray(way_delays, dtype=float)
    if np.any(delays <= 0):
        raise ConfigurationError("delay must be > 0")
    slice_time = constraints.delay_limit / BASE_ACCESS_CYCLES
    stretched = np.ceil(delays / slice_time - 1e-12).astype(np.int64)
    return np.where(
        delays <= constraints.delay_limit, BASE_ACCESS_CYCLES, stretched
    )


def delay_violations_columns(
    way_delays: np.ndarray, constraints: YieldConstraints
) -> np.ndarray:
    """Boolean ``(chips, ways)`` mask of ways missing the 4-cycle latency.

    Uses the delay limit directly (not the cycle count): a delay a hair
    over the limit still rounds to 4 cycles under the reference's 1e-12
    ceiling guard yet violates :meth:`YieldConstraints.meets_delay`,
    exactly as :attr:`ChipCase.delay_violating_ways` sees it.
    """
    return np.asarray(way_delays, dtype=float) > constraints.delay_limit


def loss_codes_columns(
    way_delays: np.ndarray,
    total_leakage: np.ndarray,
    constraints: YieldConstraints,
) -> np.ndarray:
    """Per-chip loss codes over a population, as one ``(chips,)`` array.

    ``LEAKAGE_CODE`` (-1) marks leakage-limited chips (taking precedence
    over delay trouble, as in :attr:`ChipCase.loss_reason`), ``PASS_CODE``
    (0) passing chips, and a positive code the number of delay-violating
    ways.
    """
    violating = delay_violations_columns(way_delays, constraints).sum(axis=1)
    leakage = np.asarray(total_leakage, dtype=float) > constraints.leakage_limit
    return np.where(leakage, LEAKAGE_CODE, violating).astype(np.int64)


def loss_reason_for_code(code: int) -> LossReason:
    """The :class:`LossReason` a :func:`loss_codes_columns` code denotes."""
    if code == LEAKAGE_CODE:
        return LossReason.LEAKAGE
    if code == PASS_CODE:
        return LossReason.NONE
    if code < 0:
        raise ConfigurationError(f"unknown loss code {code}")
    return LossReason.delay(int(code))


def loss_census_columns(codes: np.ndarray) -> Dict[LossReason, int]:
    """Count failing chips per loss reason from a loss-code column.

    Matches the ``base_counts`` of :class:`LossBreakdown` (passing chips
    are not counted; insertion order follows code order, which is how
    the per-case loop encounters reasons only incidentally — compare by
    content, not order).
    """
    codes = np.asarray(codes)
    census: Dict[LossReason, int] = {}
    values, counts = np.unique(codes, return_counts=True)
    for value, count in zip(values.tolist(), counts.tolist()):
        reason = loss_reason_for_code(value)
        if reason.is_loss:
            census[reason] = int(count)
    return census


def config_keys_columns(way_cycles: np.ndarray) -> List[str]:
    """Table 6 configuration keys for a ``(chips, ways)`` cycle array."""
    cycles = np.asarray(way_cycles)
    n4 = (cycles == BASE_ACCESS_CYCLES).sum(axis=1)
    n5 = (cycles == VACA_MAX_CYCLES).sum(axis=1)
    n6 = (cycles > VACA_MAX_CYCLES).sum(axis=1)
    if np.any(n4 + n5 + n6 != cycles.shape[1]):
        raise ConfigurationError("unclassifiable way cycles in population")
    return [
        f"{a}-{b}-{c}"
        for a, b, c in zip(n4.tolist(), n5.tolist(), n6.tolist())
    ]


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

    def way_cycles_without_band(self, band: int) -> Tuple[int, ...]:
        """Per-way cycles if horizontal band ``band`` were powered down."""
        return tuple(
            self.constraints.cycles_for_delay(way.delay_without_band(band))
            for way in self.circuit.ways
        )
