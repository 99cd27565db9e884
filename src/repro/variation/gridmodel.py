"""Grid-based spatial correlation (Friedberg-style alternative sampler).

The paper derives its hierarchical correlation *factors* from the spatial
correlation measurements of Friedberg et al., who model within-die
variation on a grid: each grid cell gets a parameter value, and the
correlation between two cells decays with their physical distance. This
module implements that original formulation as a drop-in alternative to
the hierarchical sampler:

* the cache floorplan (2x2 ways, each ``num_bands`` banks tall) is laid
  on a ``rows x cols`` grid of cells,
* for every process parameter an exponential-decay covariance
  ``cov(i, j) = sigma_intra^2 * exp(-d(i, j) / correlation_length)`` is
  built over the cell centres and factorised once (Cholesky),
* each chip draws one inter-die offset plus one correlated intra-die
  field, and every segment of the cache reads the cell underneath it.

The ``ablation_grid`` experiment compares the yield pipeline under both
correlation models — the headline scheme orderings should not depend on
which formulation is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import spawn
from repro.core.validation import require_in_range, require_positive
from repro.variation.parameters import (
    PARAMETER_NAMES,
    ProcessParameters,
    VariationTable,
    TABLE1,
)
from repro.variation.sampling import (
    CacheVariationMap,
    PERIPHERAL_SEGMENTS,
    WayVariation,
)

__all__ = ["GridCorrelationModel", "GridVariationSampler"]


@dataclass(frozen=True)
class GridCorrelationModel:
    """Exponential-decay correlation over a physical grid.

    Attributes
    ----------
    rows, cols:
        Grid resolution over the cache floorplan.
    correlation_length:
        Distance (in grid units) at which correlation falls to 1/e.
        Longer means smoother variation fields.
    intra_fraction:
        Share of each parameter's total variance assigned to the
        intra-die field; the rest is the shared inter-die offset.
    """

    rows: int = 8
    cols: int = 8
    correlation_length: float = 3.0
    intra_fraction: float = 0.4

    def __post_init__(self) -> None:
        require_positive(self.rows, "rows")
        require_positive(self.cols, "cols")
        require_positive(self.correlation_length, "correlation_length")
        require_in_range(self.intra_fraction, 0.0, 1.0, "intra_fraction")

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    def cell_centres(self) -> np.ndarray:
        """(num_cells, 2) array of cell-centre coordinates."""
        ys, xs = np.meshgrid(
            np.arange(self.rows) + 0.5,
            np.arange(self.cols) + 0.5,
            indexing="ij",
        )
        return np.column_stack([xs.ravel(), ys.ravel()])

    def covariance(self) -> np.ndarray:
        """Unit-variance exponential-decay covariance over the cells."""
        centres = self.cell_centres()
        deltas = centres[:, None, :] - centres[None, :, :]
        distance = np.sqrt((deltas**2).sum(axis=-1))
        return np.exp(-distance / self.correlation_length)

    def cholesky(self) -> np.ndarray:
        """Cholesky factor of the (jittered) covariance.

        Factorised once per model instance: the covariance depends only
        on the (frozen) geometry, and the O(cells^3) factorisation was
        being recomputed on every call. Callers must not mutate the
        returned array.
        """
        cached = self.__dict__.get("_chol_cache")
        if cached is None:
            cov = self.covariance()
            cov += np.eye(self.num_cells) * 1e-9
            cached = np.linalg.cholesky(cov)
            # frozen dataclass: stash the cache without going through
            # the blocked __setattr__
            object.__setattr__(self, "_chol_cache", cached)
        return cached


class GridVariationSampler:
    """Samples :class:`CacheVariationMap` from a correlated grid field.

    The floorplan assumed: ways on the paper's 2x2 mesh; within a way,
    bands stack vertically; peripherals sit at the way's decoder edge.
    Each segment reads the grid cell containing its centroid, so
    physically close segments — the same band of neighbouring ways, or a
    way and its own periphery — receive strongly correlated parameters,
    which is exactly the behaviour the paper's Section 4.2 argument
    needs.

    Parameters
    ----------
    table:
        Variation table (Table 1 by default).
    model:
        Grid geometry and correlation decay.
    num_ways, num_bands:
        Cache organisation (must match the circuit model's).
    path_residual_sigma, outlier_band_prob, outlier_scale_range:
        Same residual/outlier machinery as the hierarchical sampler (the
        within-segment effects a smooth field cannot express).
    """

    def __init__(
        self,
        table: VariationTable = TABLE1,
        model: GridCorrelationModel = GridCorrelationModel(),
        num_ways: int = 4,
        num_bands: int = 4,
        path_residual_sigma: float = 0.22,
        outlier_band_prob: float = 0.035,
        outlier_scale_range: Tuple[float, float] = (1.10, 2.10),
        clip_sigma: float = 3.0,
    ) -> None:
        if num_ways != 4:
            raise ConfigurationError(
                "the grid floorplan models the paper's 2x2 way mesh"
            )
        require_positive(num_bands, "num_bands")
        self.table = table
        self.model = model
        self.num_ways = num_ways
        self.num_bands = num_bands
        self.path_residual_sigma = path_residual_sigma
        self.outlier_band_prob = outlier_band_prob
        self.outlier_scale_range = outlier_scale_range
        self.clip_sigma = clip_sigma
        self._sigmas = table.sigmas()
        self._nominal = table.nominal()
        self._chol = model.cholesky()
        self._segment_cells = self._build_floorplan()

    # ------------------------------------------------------------------
    def _build_floorplan(self) -> Dict[Tuple[int, str], int]:
        """Map (way, segment) -> grid cell index.

        Ways occupy the four quadrants; a way's bands split its quadrant
        vertically with band 0 at the periphery edge, where the way's
        decoder/precharge/sense/output segments also sit.
        """
        model = self.model
        cells: Dict[Tuple[int, str], int] = {}
        half_rows = model.rows // 2
        half_cols = model.cols // 2

        def cell_at(x: float, y: float) -> int:
            col = min(int(x), model.cols - 1)
            row = min(int(y), model.rows - 1)
            return row * model.cols + col

        for way in range(self.num_ways):
            mesh_row, mesh_col = divmod(way, 2)
            x0 = mesh_col * half_cols
            y0 = mesh_row * half_rows
            x_mid = x0 + half_cols / 2
            # bands stack away from the periphery edge (the mesh centre)
            for band in range(self.num_bands):
                frac = (band + 0.5) / self.num_bands
                y = y0 + (frac * half_rows if mesh_row == 0 else (1 - frac) * half_rows)
                cells[(way, f"band{band}")] = cell_at(x_mid, y)
            edge_y = y0 + (0.25 if mesh_row == 0 else half_rows - 0.25)
            for i, name in enumerate(PERIPHERAL_SEGMENTS):
                x = x0 + (i + 0.5) * half_cols / len(PERIPHERAL_SEGMENTS)
                cells[(way, name)] = cell_at(x, edge_y)
        return cells

    def _field_to_params(
        self, inter: Dict[str, float], field: Dict[str, np.ndarray], cell: int
    ) -> ProcessParameters:
        values = {}
        for name in PARAMETER_NAMES:
            nominal = getattr(self._nominal, name)
            sigma = self._sigmas[name]
            value = nominal + inter[name] + float(field[name][cell])
            low = nominal - self.clip_sigma * sigma
            high = nominal + self.clip_sigma * sigma
            values[name] = min(max(value, max(low, nominal * 0.1)), high)
        return ProcessParameters(**values)

    def _draw_residuals(self, rng: np.random.Generator) -> Tuple[float, ...]:
        sigma = self.path_residual_sigma
        residuals: List[float] = []
        for _ in range(self.num_bands):
            value = 1.0
            if sigma > 0:
                value = float(rng.lognormal(-0.5 * sigma * sigma, sigma))
            if self.outlier_band_prob > 0 and rng.uniform() < self.outlier_band_prob:
                low, high = self.outlier_scale_range
                value *= float(rng.uniform(low, high))
            residuals.append(value)
        return tuple(residuals)

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, chip_id: int = 0) -> CacheVariationMap:
        """Draw one cache's variation map from the grid field."""
        inter: Dict[str, float] = {}
        field: Dict[str, np.ndarray] = {}
        inter_frac = 1.0 - self.model.intra_fraction
        for name in PARAMETER_NAMES:
            sigma = self._sigmas[name]
            inter[name] = float(
                rng.normal(0.0, sigma * np.sqrt(inter_frac))
            )
            white = rng.standard_normal(self.model.num_cells)
            field[name] = (
                self._chol @ white
            ) * sigma * np.sqrt(self.model.intra_fraction)

        die = self._field_to_params(inter, field, 0)
        ways = []
        for way in range(self.num_ways):
            bands = tuple(
                self._field_to_params(
                    inter, field, self._segment_cells[(way, f"band{b}")]
                )
                for b in range(self.num_bands)
            )
            peripherals = {
                name: self._field_to_params(
                    inter, field, self._segment_cells[(way, name)]
                )
                for name in PERIPHERAL_SEGMENTS
            }
            way_params = bands[0]  # representative: the periphery-edge band
            ways.append(
                WayVariation(
                    way=way,
                    params=way_params,
                    bands=bands,
                    band_residuals=self._draw_residuals(rng),
                    **peripherals,
                )
            )
        return CacheVariationMap(chip_id=chip_id, die=die, ways=tuple(ways))

    def sample_chip(self, seed: int, chip_id: int) -> CacheVariationMap:
        """Deterministic per-chip sampling (same contract as the
        hierarchical sampler)."""
        rng = spawn(seed, f"grid-chip-{chip_id}")
        return self.sample(rng, chip_id=chip_id)
