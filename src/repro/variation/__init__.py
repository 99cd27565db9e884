"""Process-variation modelling (paper Sections 2 and 3).

The paper models five sources of parametric variation — gate length, device
threshold voltage, metal line width, metal thickness, and inter-layer
dielectric thickness — with the nominal and 3-sigma values of its Table 1,
and correlates them spatially using per-level correlation factors derived
from Friedberg et al. This subpackage reproduces that machinery:

* :mod:`repro.variation.parameters` — the parameter vector and Table 1.
* :mod:`repro.variation.spatial` — correlation factors and the 2x2 way mesh.
* :mod:`repro.variation.sampling` — the hierarchical correlated sampling
  configuration of a full cache (die -> way -> peripheral/array-band
  segments) and its per-chip variation maps.
* :mod:`repro.variation.columnar` — the sampler: whole populations drawn
  as columns, bit-identical per chip to the scalar per-parameter oracle
  in ``tests/oracles/sampling.py``.
* :mod:`repro.variation.montecarlo` — the paper's population size.
* :mod:`repro.variation.gridmodel` — a grid/Cholesky field sampler, an
  alternative correlation formulation.
"""

from repro.variation.parameters import (
    PARAMETER_NAMES,
    ParameterSpec,
    ProcessParameters,
    VariationTable,
    TABLE1,
)
from repro.variation.spatial import (
    CorrelationFactors,
    MeshLayout,
    PAPER_FACTORS,
)
from repro.variation.sampling import (
    CacheVariationMap,
    CacheVariationSampler,
    WayVariation,
)
from repro.variation.gridmodel import GridCorrelationModel, GridVariationSampler
from repro.variation.columnar import (
    ColumnarPopulation,
    ColumnarPopulationSampler,
)

__all__ = [
    "PARAMETER_NAMES",
    "ParameterSpec",
    "ProcessParameters",
    "VariationTable",
    "TABLE1",
    "CorrelationFactors",
    "MeshLayout",
    "PAPER_FACTORS",
    "CacheVariationMap",
    "CacheVariationSampler",
    "WayVariation",
    "GridCorrelationModel",
    "GridVariationSampler",
    "ColumnarPopulation",
    "ColumnarPopulationSampler",
]
