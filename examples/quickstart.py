#!/usr/bin/env python3
"""Quickstart: manufacture a few chips and try to rescue the failures.

This walks the library's core loop end to end:

1. draw manufactured caches from the correlated process-variation model,
2. evaluate their per-way delay and leakage with the circuit model,
3. derive the paper's yield limits from a small population,
4. classify each chip and apply YAPD / VACA / Hybrid to the failures.

:class:`YieldStudy` does steps 1-3 (Table 1 + the paper's correlation
factors, a 16 KB 4-way cache with 4 banks per way at 45 nm, the nominal
constraint policy); each chip of the result is a row of classification
columns, and each scheme decides all rows in one call.

Run:  python examples/quickstart.py
"""

from repro.core import units
from repro.schemes import Hybrid, VACA, YAPD
from repro.yieldmodel import LossReason, YieldStudy, config_key


def loss_reason(chips, index: int) -> LossReason:
    """A failing chip's loss bucket: leakage first, then the number of
    delay-violating ways."""
    if chips.leakage_violation[index]:
        return LossReason.LEAKAGE
    return LossReason.delay(int(chips.delay_violations[index].sum()))


def describe(decided, index: int) -> str:
    """A decision row: what it powers down and the way cycles it ships."""
    if not decided.saved[index]:
        return "lost"
    way = int(decided.disabled_way[index])
    band = int(decided.disabled_band[index])
    off = (
        f"way {way} off, " if way >= 0
        else f"band {band} off, " if band >= 0
        else ""
    )
    cycles = tuple(c or None for c in decided.way_cycles[index].tolist())
    return f"SAVED - {off}way cycles {cycles}"


def main() -> None:
    population = YieldStudy(seed=42, count=300).run()
    constraints = population.constraints
    print(
        f"limits: delay <= {units.to_ps(constraints.delay_limit):.0f} ps "
        f"(4 cycles), leakage <= {units.to_mw(constraints.leakage_limit):.2f} mW"
    )

    chips = population.chips()
    schemes = [YAPD(), VACA(), Hybrid()]
    decisions = [scheme.decide(chips) for scheme in schemes]
    failing = (~chips.passes).nonzero()[0].tolist()
    for index in failing[:5]:
        print(
            f"\nchip {chips.circuits.chip_ids[index]}: "
            f"{loss_reason(chips, index).value}, "
            f"configuration {config_key(chips.way_cycles[index].tolist())}, "
            f"delay {units.to_ps(chips.circuits.access_delays[index]):.0f} ps, "
            f"leakage {units.to_mw(chips.total_leakage[index]):.2f} mW"
        )
        for scheme, decided in zip(schemes, decisions):
            print(f"  {scheme.name:8s} {describe(decided, index)}")

    print(f"\n{len(failing)} of {chips.count} chips fail parametric testing;")
    saved = int(decisions[-1].saved[failing].sum())
    print(f"the Hybrid scheme rescues {saved} of them.")


if __name__ == "__main__":
    main()
