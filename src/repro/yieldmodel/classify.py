"""Population yield classification (paper Tables 2, 3 and 6).

:class:`ChipColumns` binds a population's circuit columns to a set of
constraints and derives, once, everything the schemes and the tables
need, one row per chip: per-way access cycles, the delay-violating ways,
the leakage verdict, each chip's loss-reason code, and the two leakage
readings the schemes decide on (true by default, measured in the sensor
study). It also counts, once, its failing chips per loss reason and its
shipping chips. :func:`config_key` gives a row's "a-b-c" way-latency
configuration key of Table 6 (a ways at 4 cycles, b at 5, c at 6 or
more), and :class:`LossReason` its loss bucket. :func:`loss_counts` is
the one loss count: over all of a population's codes it gives the base
counts, over a scheme's unsaved rows its residual losses.

Bucket semantics follow the paper's tables: a chip that violates the
leakage limit is counted under "Leakage Constraint" whether or not it also
has delay trouble (Table 6's 4-0-0 row, "leakage power limited caches that
did not violate the timing requirements", accounts for 105 + 33 = all 138
leakage-bucket chips, which fixes this reading); the "Delay Constraint
(N ways)" buckets hold chips that violate delay only.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES, YieldConstraints

__all__ = [
    "LossReason",
    "ChipColumns",
    "config_key",
    "cycles_for_delays",
    "loss_counts",
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


def cycles_for_delays(
    delays: np.ndarray, constraints: YieldConstraints
) -> np.ndarray:
    """Access cycles each delay (s) needs (int array, elementwise).

    4 cycles within the limit; one more cycle per additional quarter of
    the limit (the access is pipelined over equal cycle slices).
    """
    if np.any(delays <= 0):
        raise ConfigurationError("delay must be > 0")
    slice_time = constraints.delay_limit / BASE_ACCESS_CYCLES
    stretched = np.ceil(delays / slice_time - 1e-12).astype(np.int64)
    return np.where(
        delays <= constraints.delay_limit, BASE_ACCESS_CYCLES, stretched
    )


def loss_counts(codes: np.ndarray) -> Dict[LossReason, int]:
    """Chips per loss reason among loss-reason ``codes`` (see
    :attr:`ChipColumns.loss_codes`): leakage first, then the delay
    buckets by ascending way count; passing chips and empty buckets are
    left out."""
    counts: Dict[LossReason, int] = {}
    for code, count in enumerate(np.bincount(codes).tolist()):
        if code and count:
            counts[
                LossReason.LEAKAGE if code == 1
                else LossReason.delay(code - 1)
            ] = count
    return counts


class ChipColumns:
    """A population's classification as read-only columns, one row per chip.

    Classified from the circuit columns once, here. ``loss_codes[i]`` is
    chip ``i``'s loss reason: 0 when it passes, 1 for leakage (whatever
    its delays), ``1 + k`` for delay over ``k`` ways, so ascending codes
    are the tables' row order. ``base_counts`` counts the failing chips
    per reason (shared: copy it before changing it) and ``ships`` the
    passing ones. The two leakage readings the schemes decide on —
    ``way_gated_leakage[i, w]``, the total leakage with way ``w`` gated
    off, and ``leakiest_way[i]`` — default to the true values; the
    sensor study passes measured ones
    (:func:`repro.schemes.sensors.yield_with_sensor`).
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
        slow_ways = self.delay_violations.sum(axis=1)
        self.loss_codes = np.where(
            self.leakage_violation, 1, slow_ways + (slow_ways > 0)
        )
        self.passes = self.loss_codes == 0
        self.base_counts = loss_counts(self.loss_codes)
        self.ships = self.count - sum(self.base_counts.values())
        self.way_gated_leakage = (
            total[:, None] - circuits.way_leakages
            if way_gated_leakage is None
            else way_gated_leakage
        )
        # argmax takes the first of equal maxima.
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

