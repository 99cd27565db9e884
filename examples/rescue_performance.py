#!/usr/bin/env python3
"""What does rescuing a chip cost at runtime?

Finds a failing chip in the Monte Carlo population, rescues it with each
applicable scheme, builds the rescued cache's way configuration, and runs
SPEC2000-like workloads through the out-of-order pipeline simulator to
measure the CPI penalty of shipping that chip — the paper's Section 5.2
question for a single die.

Run:  python examples/rescue_performance.py [benchmark ...]
"""

import sys

from repro.cache.setassoc import WayConfig
from repro.schemes import Hybrid, NaiveBinning, VACA, YAPD
from repro.uarch import Simulator
from repro.workloads import get_compiled_trace, get_profile
from repro.yieldmodel import LossReason, YieldStudy, config_key

TRACE = 12_000
WARMUP = 8_000


def find_delay_victim(chips) -> int:
    """The row of a chip whose only problem is one slow (5-cycle) way:
    3-1-0, no leakage violation."""
    for index in (~chips.passes).nonzero()[0].tolist():
        cycles = chips.way_cycles[index].tolist()
        if not chips.leakage_violation[index] and config_key(cycles) == "3-1-0":
            return index
    raise SystemExit("no 3-1-0 chip in this population; raise the count")


def measure(benchmark: str, way_cycles, uniform=None) -> float:
    profile = get_profile(benchmark)
    simulator = Simulator(
        l1d_config=WayConfig(latencies=way_cycles) if way_cycles else None,
        uniform_load_latency=uniform,
        core=Simulator().core.replace(predicted_load_latency=uniform)
        if uniform
        else Simulator().core,
    )
    trace = get_compiled_trace(profile, 7, WARMUP + TRACE)
    return simulator.run(trace, warmup=WARMUP).cpi


def main() -> None:
    benchmarks = sys.argv[1:] or ["gzip", "twolf", "swim"]
    print("simulating 500 manufactured caches to find a 3-1-0 victim...")
    population = YieldStudy(seed=2006, count=500).run()
    chips = population.chips()
    index = find_delay_victim(chips)
    reason = LossReason.delay(int(chips.delay_violations[index].sum()))
    print(
        f"chip {chips.circuits.chip_ids[index]}: way cycles "
        f"{tuple(chips.way_cycles[index].tolist())} ({reason.value})\n"
    )

    options = []
    for scheme in (YAPD(), VACA(), Hybrid(), NaiveBinning(5)):
        decided = scheme.decide(chips)
        if not decided.saved[index]:
            print(f"{scheme.name:10s} cannot save it")
            continue
        way = int(decided.disabled_way[index])
        cycles = tuple(c or None for c in decided.way_cycles[index].tolist())
        options.append((scheme.name, cycles))
        off = f"way {way} off, " if way >= 0 else ""
        print(f"{scheme.name:10s} saves the chip: {off}way cycles {cycles}")

    print(f"\n{'benchmark':10s} {'healthy':>8s}", end="")
    for name, _ in options:
        print(f" {name:>10s}", end="")
    print()

    for benchmark in benchmarks:
        base = measure(benchmark, None)
        print(f"{benchmark:10s} {base:8.3f}", end="")
        for name, cycles in options:
            uniform = max(cycles) if name.startswith("Binning") else None
            cpi = measure(benchmark, None if uniform else cycles, uniform)
            print(f" {100 * (cpi / base - 1):+9.2f}%", end="")
        print()

    print(
        "\n(positive numbers are the CPI cost of shipping the rescued "
        "chip; the paper's Table 6 reports the same quantity averaged "
        "over the suite)"
    )


if __name__ == "__main__":
    main()
