#!/usr/bin/env python3
"""Compare the two spatial-correlation formulations.

The paper samples process parameters hierarchically with correlation
*factors*; those factors were derived from Friedberg et al.'s
grid/distance-decay measurements. This library implements both — the
hierarchical sampler (`CacheVariationSampler`, the default) and a
grid/Cholesky field sampler (`GridVariationSampler`) — and this example
runs the full yield pipeline under each to show the headline conclusions
do not depend on the formulation. `YieldStudy` draws the hierarchical
population itself; the grid sampler's chips become columns with
`ColumnarPopulation.from_maps` and go through the same circuit kernel
and assembly.

Run:  python examples/correlation_models.py [population]
"""

import sys

from repro.circuit import CacheCircuitModel
from repro.circuit.columnar import evaluate_population_pair
from repro.schemes import Hybrid, VACA, YAPD
from repro.variation import ColumnarPopulation, GridVariationSampler
from repro.yieldmodel import YieldStudy, scheme_yield_interval


def hierarchical_population(count: int):
    return YieldStudy(seed=2006, count=count).run()


def grid_population(count: int):
    sampler = GridVariationSampler()
    chips = ColumnarPopulation.from_maps(
        [sampler.sample_chip(2006, chip_id) for chip_id in range(count)]
    )
    circuits = evaluate_population_pair(
        CacheCircuitModel(), CacheCircuitModel(hyapd=True), chips
    )
    return YieldStudy(seed=2006, count=count).assemble(*circuits)


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    models = {
        "hierarchical (paper factors)": hierarchical_population,
        "grid field (Friedberg-style)": grid_population,
    }
    schemes = [YAPD(), VACA(), Hybrid()]

    print(f"{count} chips per model\n")
    header = f"{'correlation model':30s} {'base':>7s}"
    for scheme in schemes:
        header += f" {scheme.name:>8s}"
    header += "  Hybrid yield (95% CI)"
    print(header)

    for label, draw in models.items():
        population = draw(count)
        breakdown = population.breakdown(schemes)
        row = f"{label:30s} {breakdown.yield_with():6.1%}"
        for scheme in schemes:
            row += f" {breakdown.yield_with(scheme.name):7.1%}"
        low, high = scheme_yield_interval(population, Hybrid())
        row += f"  [{low:.1%}, {high:.1%}]"
        print(row)

    print(
        "\nBoth formulations produce the same ordering "
        "(Hybrid > YAPD > VACA > base); the factors are, after all, a "
        "fit to the grid model's correlations."
    )


if __name__ == "__main__":
    main()
