#!/usr/bin/env python3
"""Adaptive Hybrid: choose disable-vs-slow per workload (paper Section 4.4).

The paper's Hybrid cache fixes one policy ("keep ways on as long as
possible"), but notes the choice should really depend on the workload:
memory-intensive codes prefer keeping a slow way (capacity matters),
compute-bound codes prefer disabling it (latency matters). This example
builds the measurement-driven estimator the paper sketches: it simulates
both options for a 3-1-0 chip on each workload and lets
:class:`AdaptiveHybrid` pick.

Run:  python examples/adaptive_hybrid.py
"""

from repro.cache.setassoc import WayConfig
from repro.schemes import AdaptiveHybrid
from repro.schemes.adaptive import TableEstimator
from repro.uarch import Simulator
from repro.workloads import TraceGenerator, get_profile
from repro.yieldmodel import YieldStudy, config_key

TRACE = 10_000
WARMUP = 8_000
BENCHMARKS = ("crafty", "gzip", "twolf", "ammp")

#: The two options for a 3-1-0 chip.
KEEP_SLOW = (4, 4, 4, 5)
DISABLE = (4, 4, 4, None)


def degradation(benchmark: str, cycles) -> float:
    profile = get_profile(benchmark)
    base = Simulator().run(
        TraceGenerator(profile, seed=11).generate(WARMUP + TRACE), warmup=WARMUP
    )
    rescued = Simulator(l1d_config=WayConfig(latencies=cycles)).run(
        TraceGenerator(profile, seed=11).generate(WARMUP + TRACE), warmup=WARMUP
    )
    return rescued.degradation_vs(base)


def main() -> None:
    print("finding a 3-1-0 chip...")
    chips = YieldStudy(seed=2006, count=500).run().chips()
    index = next(
        i
        for i in (~chips.passes).nonzero()[0].tolist()
        if config_key(chips.way_cycles[i].tolist()) == "3-1-0"
    )

    print(
        f"chip {chips.circuits.chip_ids[index]}: way cycles "
        f"{tuple(chips.way_cycles[index].tolist())}\n"
    )
    print(f"{'workload':10s} {'keep@5':>8s} {'disable':>8s}  adaptive choice")
    for benchmark in BENCHMARKS:
        keep = degradation(benchmark, KEEP_SLOW)
        drop = degradation(benchmark, DISABLE)
        estimator = TableEstimator(
            {KEEP_SLOW: keep, DISABLE: drop}, default=1.0
        )
        way = int(AdaptiveHybrid(estimator).decide(chips).disabled_way[index])
        choice = (
            "keep the slow way (VACA mode)"
            if way < 0
            else f"disable way {way} (YAPD mode)"
        )
        print(f"{benchmark:10s} {keep:8.2%} {drop:8.2%}  {choice}")

    print(
        "\nThe fixed paper policy always keeps the way powered; the "
        "adaptive variant switches per workload, matching the paper's "
        "Section 4.4 discussion."
    )


if __name__ == "__main__":
    main()
