"""Hierarchical correlated sampling of one cache's process parameters.

The sampler reproduces the paper's Section 3 procedure at *segment*
granularity. Modelling every one of the ~128K bits individually is neither
necessary nor what drives the paper's results (the bit factor is 0.01, i.e.
bits track their row almost exactly); what matters is the die, way, and
row-band structure. Accordingly one cache sample consists of:

* a die-level parameter vector drawn from Table 1,
* a shared horizontal-band offset per band index (Section 4.2 premise),
* a way-level vector per way, drawn around the die value with the 2x2-mesh
  correlation factors,
* per-way peripheral segment vectors (decoder, precharge, sense amplifiers,
  output driver), drawn around the way value with the row factor,
* per-(way, band) array segment vectors, drawn around the way value plus
  the band offset with the row factor.

:class:`CacheVariationSampler` holds this configuration; populations are
drawn as columns by :mod:`repro.variation.columnar`. A
:class:`CacheVariationMap` is one chip from another sampler
(:mod:`repro.variation.gridmodel`), which
:meth:`~repro.variation.columnar.ColumnarPopulation.from_maps` turns
into columns.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.validation import require_positive
from repro.variation.parameters import (
    PARAMETER_NAMES,
    ProcessParameters,
    VariationTable,
    TABLE1,
)
from repro.variation.spatial import CorrelationFactors, MeshLayout, PAPER_FACTORS

__all__ = ["WayVariation", "CacheVariationMap", "CacheVariationSampler"]

#: Peripheral segments modelled per way.
PERIPHERAL_SEGMENTS: Tuple[str, ...] = (
    "decoder",
    "precharge",
    "senseamp",
    "outdriver",
)


class WayVariation(NamedTuple):
    """Sampled parameters for one cache way.

    A ``NamedTuple`` for the same reason as
    :class:`~repro.variation.parameters.ProcessParameters`: populations
    construct one per (chip, way) and tuple construction is several
    times cheaper than a frozen dataclass's per-field ``__setattr__``.

    Attributes
    ----------
    way:
        Way index.
    params:
        The way-level mean vector (around which segments were drawn).
    decoder, precharge, senseamp, outdriver:
        Peripheral segment vectors.
    bands:
        Array segment vectors, one per horizontal band (index 0 is the band
        physically closest to the sense amplifiers).
    band_residuals:
        Multiplicative residual on each band's critical-path delay
        (unit mean, lognormal). This absorbs within-segment variability the
        five-parameter segment model cannot express — random-dopant
        worst-cell extremes along the accessed column, sense offset, and
        coupling-noise alignment — and is calibrated so the incidence of
        severely slow single ways matches the population the paper
        observes (its 6-or-more-cycle ways). Empty means "no residual".
    """

    way: int
    params: ProcessParameters
    decoder: ProcessParameters
    precharge: ProcessParameters
    senseamp: ProcessParameters
    outdriver: ProcessParameters
    bands: Tuple[ProcessParameters, ...]
    band_residuals: Tuple[float, ...] = ()

    def peripheral(self, name: str) -> ProcessParameters:
        """Return the peripheral segment vector called ``name``."""
        if name not in PERIPHERAL_SEGMENTS:
            raise ConfigurationError(f"unknown peripheral segment {name!r}")
        return getattr(self, name)


class CacheVariationMap(NamedTuple):
    """All sampled process parameters for one manufactured cache."""

    chip_id: int
    die: ProcessParameters
    ways: Tuple[WayVariation, ...]


class CacheVariationSampler:
    """The hierarchical sampling configuration of one cache.

    :class:`~repro.variation.columnar.ColumnarPopulationSampler` draws
    populations with it.

    Parameters
    ----------
    table:
        The variation table (defaults to the paper's Table 1).
    factors:
        Hierarchical correlation factors (defaults to the paper's).
    mesh:
        Physical placement of ways (defaults to the paper's 2x2 mesh).
    num_ways:
        Cache associativity; must fit on the mesh.
    num_bands:
        Number of horizontal bands per way (H-YAPD power-down granularity).
    clip_sigma:
        Draws are clipped to the die mean +/- ``clip_sigma`` Table 1 sigmas
        and to a small positive floor, so extreme tails cannot produce
        non-physical (e.g. negative-width) devices.
    path_residual_sigma:
        Lognormal sigma of the per-(way, band) critical-path delay
        residual (see :class:`WayVariation.band_residuals`). Zero disables
        residual sampling.
    outlier_band_prob:
        Probability that a given (way, band) carries a *spot parametric
        outlier* — a resistive via/contact or extreme local excursion that
        slows that band's path substantially without killing functionality.
        These produce the isolated severely-slow ways the paper observes
        (its 6-or-more-cycle ways, e.g. the 3-0-1 configuration of
        Table 6). Zero disables outliers.
    outlier_scale_range:
        (low, high) of the uniform delay multiplier applied by an outlier.
    """

    #: Parameters may never fall below this fraction of nominal.
    _FLOOR_FRACTION = 0.10

    def __init__(
        self,
        table: VariationTable = TABLE1,
        factors: CorrelationFactors = PAPER_FACTORS,
        mesh: Optional[MeshLayout] = None,
        num_ways: int = 4,
        num_bands: int = 4,
        clip_sigma: float = 3.0,
        path_residual_sigma: float = 0.22,
        outlier_band_prob: float = 0.035,
        outlier_scale_range: Tuple[float, float] = (1.10, 2.10),
    ) -> None:
        require_positive(num_ways, "num_ways")
        require_positive(num_bands, "num_bands")
        require_positive(clip_sigma, "clip_sigma")
        if path_residual_sigma < 0:
            raise ConfigurationError("path_residual_sigma must be >= 0")
        if not 0.0 <= outlier_band_prob < 1.0:
            raise ConfigurationError("outlier_band_prob must be in [0, 1)")
        if outlier_scale_range[0] < 1.0 or outlier_scale_range[1] < outlier_scale_range[0]:
            raise ConfigurationError(
                "outlier_scale_range must satisfy 1.0 <= low <= high"
            )
        self.path_residual_sigma = path_residual_sigma
        self.outlier_band_prob = outlier_band_prob
        self.outlier_scale_range = outlier_scale_range
        self.table = table
        self.factors = factors
        self.mesh = mesh if mesh is not None else MeshLayout()
        if num_ways > self.mesh.capacity:
            raise ConfigurationError(
                f"{num_ways} ways do not fit on a "
                f"{self.mesh.rows}x{self.mesh.cols} mesh"
            )
        self.num_ways = num_ways
        self.num_bands = num_bands
        self.clip_sigma = clip_sigma
        #: The constructor values (mesh resolved), which fix every draw.
        self.identity = (
            table, factors, self.mesh, num_ways, num_bands, clip_sigma,
            path_residual_sigma, outlier_band_prob,
            tuple(outlier_scale_range),
        )
        self._sigmas = table.sigmas()
        self._nominal = table.nominal()
        # Scale and clip vectors of the draw arithmetic, in
        # PARAMETER_NAMES order, which the columnar sampler applies to
        # whole populations: a drawn value is ``centre + scale * z``,
        # clipped to the die mean +/- ``clip_sigma`` sigmas and to the
        # floor. Tiled scales cover the per-way peripheral and band
        # segments in draw order.
        nominal_arr = np.array(list(self._nominal))
        sigma_arr = np.array([self._sigmas[n] for n in PARAMETER_NAMES])
        self._nominal_arr = nominal_arr
        self._clip_low = np.maximum(
            nominal_arr - clip_sigma * sigma_arr,
            nominal_arr * self._FLOOR_FRACTION,
        )
        self._clip_high = nominal_arr + clip_sigma * sigma_arr
        rest_segments = len(PERIPHERAL_SEGMENTS) + self.num_bands
        self._die_scale = sigma_arr * self.factors.inter_die
        self._band_scale = np.tile(sigma_arr, self.num_bands) * self.factors.band
        self._rest_scale = np.tile(sigma_arr, rest_segments) * self.factors.row
        self._way_scales = tuple(
            sigma_arr * self.factors.way_factor(way, self.mesh)
            for way in range(self.num_ways)
        )
        self._way_factors = tuple(
            self.factors.way_factor(way, self.mesh)
            for way in range(self.num_ways)
        )
        sigma = path_residual_sigma
        self._residual_mean = -0.5 * sigma * sigma

    # Equal samplers draw equal chips. The type takes part because the
    # columnar sampler reads the derived arrays above, which a subclass
    # may change.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheVariationSampler):
            return NotImplemented
        return (type(self), self.identity) == (type(other), other.identity)

    def __hash__(self) -> int:
        return hash((type(self), self.identity))
