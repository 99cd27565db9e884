"""The scalar per-parameter sampler the columnar sampler replaced.

``sample_reference`` and its helpers ``_clip``, ``_draw_around``,
``_draw_offsets`` and ``_draw_residuals`` are
``CacheVariationSampler``'s methods of those names verbatim, now
functions whose ``self`` is the sampler: every parameter is one
``Generator`` call, die first, then the shared band offsets, then per
way its vector, its peripheral and band segments and its residuals.
``sample_chip`` runs them on ``spawn(seed, f"chip-{chip_id}")``, which
is what ``ColumnarPopulationSampler`` must reproduce chip for chip,
value for value and to the last word of each stream;
``sample_range`` is the oracle-only stand-in for
``ColumnarPopulationSampler.sample_range``. ``chip_map`` is one chip of
a columnar population as a per-chip map (once
``ColumnarPopulation.chip_map``), and ``columnar_chip`` the production
sampler's draw of one chip as one (once
``CacheVariationSampler.sample_chip``), so tests compare them with the
scalar maps by ``==``. Never imported by ``src/``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import spawn
from repro.variation.columnar import (
    ColumnarPopulation,
    ColumnarPopulationSampler,
)
from repro.variation.parameters import PARAMETER_NAMES, ProcessParameters
from repro.variation.sampling import (
    CacheVariationMap,
    CacheVariationSampler,
    PERIPHERAL_SEGMENTS,
    WayVariation,
)

__all__ = [
    "chip_map",
    "columnar_chip",
    "sample_chip",
    "sample_range",
    "sample_reference",
]


def _clip(self: CacheVariationSampler, name: str, value: float) -> float:
    nominal = getattr(self._nominal, name)
    sigma = self._sigmas[name]
    low = max(nominal - self.clip_sigma * sigma, nominal * self._FLOOR_FRACTION)
    high = nominal + self.clip_sigma * sigma
    return min(max(value, low), high)


def _draw_around(
    self: CacheVariationSampler,
    mean: ProcessParameters,
    factor: float,
    rng: np.random.Generator,
    offsets: Optional[Dict[str, float]] = None,
) -> ProcessParameters:
    """Draw a vector around ``mean`` with sigma scaled by ``factor``.

    ``offsets`` (absolute, per parameter) are added to the mean before
    drawing; this is how the shared band component enters.
    """
    values = {}
    for name in PARAMETER_NAMES:
        centre = getattr(mean, name)
        if offsets is not None:
            centre += offsets.get(name, 0.0)
        sigma = self._sigmas[name] * factor
        value = centre if sigma == 0.0 else rng.normal(centre, sigma)
        values[name] = _clip(self, name, value)
    return ProcessParameters(**values)


def _draw_offsets(
    self: CacheVariationSampler, factor: float, rng: np.random.Generator
) -> Dict[str, float]:
    """Draw zero-mean absolute offsets with sigma scaled by ``factor``."""
    if factor == 0.0:
        return {name: 0.0 for name in PARAMETER_NAMES}
    return {
        name: float(rng.normal(0.0, self._sigmas[name] * factor))
        for name in PARAMETER_NAMES
    }


def _draw_residuals(
    self: CacheVariationSampler, rng: np.random.Generator
) -> Tuple[float, ...]:
    """Per-band delay residuals: lognormal core plus rare spot outliers."""
    if self.path_residual_sigma <= 0 and self.outlier_band_prob <= 0:
        return ()
    sigma = self.path_residual_sigma
    prob = self.outlier_band_prob
    mean = self._residual_mean
    lognormal = rng.lognormal
    uniform = rng.uniform
    residuals = []
    for _ in range(self.num_bands):
        value = 1.0
        if sigma > 0:
            value = float(lognormal(mean, sigma))
        if prob > 0 and uniform() < prob:
            low, high = self.outlier_scale_range
            value *= float(uniform(low, high))
        residuals.append(value)
    return tuple(residuals)


def sample_reference(
    self: CacheVariationSampler, rng: np.random.Generator, chip_id: int = 0
) -> CacheVariationMap:
    """Draw one cache's variation map with one ``rng`` call per parameter."""
    die = _draw_around(self, self._nominal, self.factors.inter_die, rng)
    band_offsets = [
        _draw_offsets(self, self.factors.band, rng) for _ in range(self.num_bands)
    ]
    ways = []
    for way in range(self.num_ways):
        way_factor = self.factors.way_factor(way, self.mesh)
        way_params = _draw_around(self, die, way_factor, rng)
        peripherals = {
            name: _draw_around(self, way_params, self.factors.row, rng)
            for name in PERIPHERAL_SEGMENTS
        }
        bands = tuple(
            _draw_around(
                self, way_params, self.factors.row, rng, offsets=band_offsets[band]
            )
            for band in range(self.num_bands)
        )
        residuals = _draw_residuals(self, rng)
        ways.append(
            WayVariation(
                way=way,
                params=way_params,
                bands=bands,
                band_residuals=residuals,
                **peripherals,
            )
        )
    return CacheVariationMap(chip_id=chip_id, die=die, ways=tuple(ways))


def sample_chip(
    sampler: CacheVariationSampler, seed: int, chip_id: int
) -> CacheVariationMap:
    """Chip ``chip_id`` of experiment ``seed``, drawn by the scalar oracle."""
    return sample_reference(sampler, spawn(seed, f"chip-{chip_id}"), chip_id)


def sample_range(
    self: ColumnarPopulationSampler, seed: int, start: int, stop: int
) -> ColumnarPopulation:
    """Chip ids ``[start, stop)``: scalar draws per chip, as columns."""
    return ColumnarPopulation.from_maps([
        sample_chip(self.sampler, seed, chip_id)
        for chip_id in range(start, stop)
    ])


def chip_map(population: ColumnarPopulation, index: int) -> CacheVariationMap:
    """Row ``index`` of ``population`` as a per-chip variation map.

    The inverse of :meth:`ColumnarPopulation.from_maps`.
    """
    if not 0 <= index < len(population.chip_ids):
        raise ConfigurationError(f"chip index {index} out of range")
    ways = []
    for way in range(population.num_ways):
        peripherals = {
            name: ProcessParameters(
                *population.peripherals[index, way, seg].tolist()
            )
            for seg, name in enumerate(PERIPHERAL_SEGMENTS)
        }
        bands = tuple(
            ProcessParameters(*population.bands[index, way, band].tolist())
            for band in range(population.num_bands)
        )
        residuals = (
            tuple(population.band_residuals[index, way].tolist())
            if population.has_residuals
            else ()
        )
        ways.append(
            WayVariation(
                way=way,
                params=ProcessParameters(
                    *population.way_params[index, way].tolist()
                ),
                bands=bands,
                band_residuals=residuals,
                **peripherals,
            )
        )
    return CacheVariationMap(
        chip_id=population.chip_ids[index],
        die=ProcessParameters(*population.die[index].tolist()),
        ways=tuple(ways),
    )


def columnar_chip(
    sampler: CacheVariationSampler, seed: int, chip_id: int
) -> CacheVariationMap:
    """Chip ``chip_id`` of experiment ``seed``, drawn by the columnar
    sampler as a one-chip population."""
    population = ColumnarPopulationSampler(sampler).sample_range(
        seed, chip_id, chip_id + 1
    )
    return chip_map(population, 0)
