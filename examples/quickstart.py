#!/usr/bin/env python3
"""Quickstart: manufacture a few chips and try to rescue the failures.

This walks the library's core loop end to end:

1. draw manufactured caches from the correlated process-variation model,
2. evaluate their per-way delay and leakage with the circuit model,
3. derive the paper's yield limits from a small population,
4. classify each chip and apply YAPD / VACA / Hybrid to the failures.

:class:`YieldStudy` does steps 1-3 (Table 1 + the paper's correlation
factors, a 16 KB 4-way cache with 4 banks per way at 45 nm, the nominal
constraint policy); each chip of the result is a classified case.

Run:  python examples/quickstart.py
"""

from repro.core import units
from repro.schemes import Hybrid, VACA, YAPD
from repro.yieldmodel import YieldStudy


def main() -> None:
    population = YieldStudy(seed=42, count=300).run()
    constraints = population.constraints
    print(
        f"limits: delay <= {units.to_ps(constraints.delay_limit):.0f} ps "
        f"(4 cycles), leakage <= {units.to_mw(constraints.leakage_limit):.2f} mW"
    )

    cases = [population.case(i) for i in range(population.population)]
    schemes = [YAPD(), VACA(), Hybrid()]
    shown = 0
    for case in cases:
        if case.passes or shown >= 5:
            continue
        shown += 1
        circuit = case.circuit
        print(
            f"\nchip {circuit.chip_id}: {case.loss_reason.value}, "
            f"configuration {case.configuration}, "
            f"delay {units.to_ps(circuit.access_delay):.0f} ps, "
            f"leakage {units.to_mw(circuit.total_leakage):.2f} mW"
        )
        for scheme in schemes:
            outcome = scheme.rescue(case)
            verdict = "SAVED" if outcome.saved else "lost "
            print(f"  {scheme.name:8s} {verdict} - {outcome.note}")

    failures = [case for case in cases if not case.passes]
    print(f"\n{len(failures)} of {len(cases)} chips fail parametric testing;")
    saved = sum(1 for case in failures if Hybrid().rescue(case).saved)
    print(f"the Hybrid scheme rescues {saved} of them.")


if __name__ == "__main__":
    main()
