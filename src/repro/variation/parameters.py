"""Process parameters and the paper's Table 1.

The paper (Section 3, Table 1) models five sources of variation with the
nominal values and 3-sigma percentage ranges reproduced in :data:`TABLE1`:

==================  ============  =========
parameter           nominal       3-sigma
==================  ============  =========
gate length         45 nm         +/- 10 %
threshold voltage   220 mV        +/- 18 %
metal line width    0.25 um       +/- 33 %
metal thickness     0.55 um       +/- 33 %
ILD thickness       0.15 um       +/- 35 %
==================  ============  =========

A :class:`ProcessParameters` instance carries one concrete value for each of
the five parameters; the sampling machinery in
:mod:`repro.variation.sampling` builds a tree of them for every segment of a
cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Tuple

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.core.validation import require_positive

__all__ = [
    "PARAMETER_NAMES",
    "ParameterSpec",
    "ProcessParameters",
    "VariationTable",
    "TABLE1",
]

#: Canonical ordering of the five varied parameters.
PARAMETER_NAMES: Tuple[str, ...] = (
    "lgate",
    "vt",
    "metal_width",
    "metal_thickness",
    "ild_thickness",
)


@dataclass(frozen=True)
class ParameterSpec:
    """Nominal value and 3-sigma fractional range of one process parameter.

    Parameters
    ----------
    name:
        One of :data:`PARAMETER_NAMES`.
    nominal:
        Nominal (design) value, in SI units.
    three_sigma_fraction:
        The 3-sigma deviation expressed as a fraction of the nominal value
        (Table 1 reports percentages; 0.10 means "+/- 10%").
    """

    name: str
    nominal: float
    three_sigma_fraction: float

    def __post_init__(self) -> None:
        if self.name not in PARAMETER_NAMES:
            raise ConfigurationError(f"unknown parameter name {self.name!r}")
        require_positive(self.nominal, f"{self.name}.nominal")
        require_positive(
            self.three_sigma_fraction, f"{self.name}.three_sigma_fraction"
        )
        require_positive(self.sigma, f"{self.name}.sigma")

    @property
    def sigma(self) -> float:
        """One standard deviation in absolute units."""
        return self.nominal * self.three_sigma_fraction / 3.0


class ProcessParameters(NamedTuple):
    """A concrete value for each of the five varied process parameters.

    A ``NamedTuple`` (not a frozen dataclass) because the samplers build
    tens of these per chip across whole Monte Carlo populations —
    tuple construction is several times cheaper than a frozen
    dataclass's ``object.__setattr__`` per field, and iteration order
    is the field order, which is :data:`PARAMETER_NAMES`.

    Attributes
    ----------
    lgate:
        Effective transistor gate length (m).
    vt:
        Device threshold voltage (V). This is the *as-doped* threshold; the
        circuit model applies gate-length roll-off on top of it.
    metal_width:
        Interconnect line width (m).
    metal_thickness:
        Interconnect metal thickness (m).
    ild_thickness:
        Inter-layer dielectric thickness (m).
    """

    lgate: float
    vt: float
    metal_width: float
    metal_thickness: float
    ild_thickness: float


class VariationTable:
    """A complete set of :class:`ParameterSpec` (one per parameter).

    The table gives the samplers the nominal :class:`ProcessParameters`
    and each parameter's one-sigma deviation.
    """

    def __init__(self, specs: Dict[str, ParameterSpec]) -> None:
        missing = set(PARAMETER_NAMES) - set(specs)
        if missing:
            raise ConfigurationError(f"variation table missing specs: {missing}")
        extra = set(specs) - set(PARAMETER_NAMES)
        if extra:
            raise ConfigurationError(f"variation table has unknown specs: {extra}")
        self._specs = dict(specs)

    def nominal(self) -> ProcessParameters:
        """The nominal (zero-variation) parameter vector."""
        return ProcessParameters(
            **{name: self._specs[name].nominal for name in PARAMETER_NAMES}
        )

    def sigmas(self) -> Dict[str, float]:
        """One-sigma absolute deviation per parameter."""
        return {name: self._specs[name].sigma for name in PARAMETER_NAMES}


#: The paper's Table 1 (45 nm PTM technology, Nassif variation limits).
TABLE1 = VariationTable(
    {
        "lgate": ParameterSpec("lgate", 45 * units.NM, 0.10),
        "vt": ParameterSpec("vt", 220 * units.MV, 0.18),
        "metal_width": ParameterSpec("metal_width", 0.25 * units.UM, 0.33),
        "metal_thickness": ParameterSpec("metal_thickness", 0.55 * units.UM, 0.33),
        "ild_thickness": ParameterSpec("ild_thickness", 0.15 * units.UM, 0.35),
    }
)
