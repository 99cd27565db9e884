"""Whole-cache delay and leakage under sampled process variation.

:class:`CacheCircuitModel` is the reproduction's stand-in for the paper's
per-chip HSPICE run: the circuit kernel evaluates a sampled population
under it into :class:`~repro.circuit.columnar.CircuitColumns`, holding
for every chip

* the delay of every (way, band) access path — the paper's
  "critical/near-critical paths" of each way,
* per-way access delay (max over its bands) and whole-cache access delay
  (max over ways),
* leakage decomposed into per-(way, band) array leakage and per-way
  peripheral leakage, which is exactly the granularity the power-down
  schemes reason about (YAPD removes a way's array *and* peripherals;
  H-YAPD removes one band of every way plus a fraction of peripherals).

An ``hyapd=True`` model applies the paper's measured 2.5% access-latency
overhead of the reorganised post-decoders (Section 4.2) uniformly to all
paths; leakage is unchanged.

The arithmetic itself runs over whole populations in
:mod:`repro.circuit.columnar`; :meth:`CacheCircuitModel.nominal` is its
one-row zero-variation reference. This module holds what that kernel
reads: the device
floors, the SRAM stage constants and the driver sizing. The composed
per-stage physics it is held to (device, interconnect, SRAM-stage,
decoder and access-path functions) is the oracle in
``tests/oracles/circuit.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.circuit.organization import CacheOrganization, PAPER_ORGANIZATION
from repro.circuit.technology import Technology, TECH45
from repro.core import units
from repro.core.validation import require_positive
from repro.variation.columnar import ColumnarPopulation
from repro.variation.parameters import TABLE1, VariationTable
from repro.variation.sampling import CacheVariationMap, WayVariation

if TYPE_CHECKING:  # the kernel module imports this one
    from repro.circuit.columnar import CircuitColumns

__all__ = [
    "CacheCircuitModel",
    "DecoderSizing",
    "PathSizing",
]

#: Effective leaking transistor width (m) of each peripheral segment,
#: sized so peripherals contribute a high-single-digit percentage of the
#: nominal cache leakage (the cell array dominates, as in the paper).
PERIPHERAL_LEAK_WIDTHS = {
    "decoder": 200 * units.UM,
    "precharge": 100 * units.UM,
    "senseamp": 120 * units.UM,
    "outdriver": 50 * units.UM,
}

#: Effective thresholds are floored here so the exponentials stay finite
#: even for extreme (clipped) parameter draws.
_MIN_VT = 0.02
#: Overdrive floor: a device this close to Vdd-limited is treated as broken
#: rather than producing absurd delays.
_MIN_OVERDRIVE = 0.05
#: Wire spacing can never collapse below this fraction of the pitch (etch
#: rules).
_MIN_SPACING_FRACTION = 0.15

#: Precharge PMOS width (m); sized to restore a segment quickly.
PRECHARGE_WIDTH = 2.0 * units.UM
#: Fraction of the bitline capacitance the precharge stage must slew before
#: the wordline can fire (models precharge-release overlap).
PRECHARGE_SLEW_FRACTION = 0.15
#: Sense-amplifier input/regeneration stage widths (m).
SENSEAMP_STAGE_WIDTH = 1.0 * units.UM
#: Capacitive load of one sense-amplifier stage (F).
SENSEAMP_STAGE_CAP = 4.0 * units.FF
#: Number of gate stages inside the sense amplifier.
SENSEAMP_STAGES = 2


@dataclass(frozen=True)
class DecoderSizing:
    """Gate sizing of the decode chain.

    Attributes
    ----------
    address_bus_length:
        Length (m) of the address bus from the drivers to the predecoders.
    address_driver_width:
        Width (m) of the address bus drivers.
    stage_widths:
        Widths (m) of the successive predecode/decode gates; each stage
        drives the next stage's gate capacitance times ``stage_fanout``.
    stage_fanout:
        Electrical fanout between consecutive decode stages.
    wordline_driver_width:
        Width (m) of the global wordline driver the chain must charge.
    """

    address_bus_length: float = 60 * units.UM
    address_driver_width: float = 1.5 * units.UM
    stage_widths: Tuple[float, ...] = (
        0.5 * units.UM,
        1.0 * units.UM,
        2.0 * units.UM,
    )
    stage_fanout: float = 4.0
    wordline_driver_width: float = 4.0 * units.UM

    def __post_init__(self) -> None:
        require_positive(self.address_bus_length, "address_bus_length")
        require_positive(self.address_driver_width, "address_driver_width")
        require_positive(self.stage_fanout, "stage_fanout")
        require_positive(self.wordline_driver_width, "wordline_driver_width")
        if not self.stage_widths:
            raise ValueError("decoder needs at least one stage")
        for width in self.stage_widths:
            require_positive(width, "stage width")


DEFAULT_DECODER_SIZING = DecoderSizing()


@dataclass(frozen=True)
class PathSizing:
    """Driver sizing of the array-access portion of the path.

    Attributes
    ----------
    gwl_driver_width:
        Global wordline driver width (m).
    lwl_driver_width:
        Local wordline driver width (m).
    output_driver_width:
        Data output driver width (m).
    output_load_cap:
        Lumped load at the end of the data return path (F) — the way
        multiplexer and the bus to the load/store unit.
    decoder:
        Sizing of the decode chain.
    """

    gwl_driver_width: float = 4.0 * units.UM
    lwl_driver_width: float = 2.0 * units.UM
    output_driver_width: float = 4.0 * units.UM
    output_load_cap: float = 25.0 * units.FF
    decoder: DecoderSizing = DEFAULT_DECODER_SIZING

    def __post_init__(self) -> None:
        require_positive(self.gwl_driver_width, "gwl_driver_width")
        require_positive(self.lwl_driver_width, "lwl_driver_width")
        require_positive(self.output_driver_width, "output_driver_width")
        require_positive(self.output_load_cap, "output_load_cap")


DEFAULT_PATH_SIZING = PathSizing()


class CacheCircuitModel:
    """Evaluates sampled caches into delays and leakage.

    Parameters
    ----------
    tech:
        Technology constants.
    org:
        Physical organisation.
    hyapd:
        If true, model the H-YAPD post-decoder organisation: all access
        paths take the paper's 2.5% latency overhead.
    sizing:
        Driver sizing of the access path.
    """

    def __init__(
        self,
        tech: Technology = TECH45,
        org: CacheOrganization = PAPER_ORGANIZATION,
        hyapd: bool = False,
        sizing: PathSizing = DEFAULT_PATH_SIZING,
    ) -> None:
        self.tech = tech
        self.org = org
        self.hyapd = hyapd
        self.sizing = sizing
        self._delay_scale = 1.0 + (tech.hyapd_delay_overhead if hyapd else 0.0)
        # Geometry constants of the access path that neither the sampled
        # way nor the band index changes. Each expression matches the
        # composed oracle term for term (same association order), so the
        # columnar kernel is bit-identical to its `access_path_delay` —
        # asserted by tests/test_columnar_diff.py.
        self._global_lengths = tuple(
            org.global_wire_length(band, tech.cell_height)
            for band in range(org.num_bands)
        )
        self._lwl_length = org.wordline_length(tech.cell_width)
        self._cell_gates = (
            org.cols_per_bank * tech.gate_cap_per_width * tech.cell_read_width
        )
        self._gwl_load = tech.gate_cap_per_width * sizing.lwl_driver_width
        self._bitline_length = org.bitline_segment_length(tech.cell_height)
        self._bitline_drains = (
            org.rows_per_segment * tech.drain_cap_per_width * tech.cell_read_width
        )
        # Device/technology subexpressions of the kernel; each matches
        # the oracle's device, interconnect or decoder helper it was
        # lifted from, term for term.
        ratio = tech.temperature_ratio
        self._drive_coeff = tech.drive_k * ratio ** (-tech.mobility_exponent)
        self._leak_coeff = tech.leak_i0 * ratio**2
        self._swing = tech.subthreshold_swing * ratio
        self._miller_eps = tech.coupling_miller * tech.wire_cap_eps
        self._min_spacing = tech.wire_pitch * _MIN_SPACING_FRACTION
        decoder = sizing.decoder
        self._dec_first_gate_cap = (
            tech.gate_cap_per_width * decoder.stage_widths[0] * 4
        )
        widths = decoder.stage_widths
        self._dec_stages = tuple(
            (
                width,
                tech.gate_cap_per_width
                * (
                    widths[i + 1] * decoder.stage_fanout
                    if i + 1 < len(widths)
                    else decoder.wordline_driver_width
                ),
            )
            for i, width in enumerate(widths)
        )

    def nominal(self, table: VariationTable = TABLE1) -> "CircuitColumns":
        """The zero-variation cache (design reference) as one row."""
        from repro.circuit.columnar import evaluate_population

        nominal = table.nominal()
        ways = tuple(
            WayVariation(
                way=w,
                params=nominal,
                decoder=nominal,
                precharge=nominal,
                senseamp=nominal,
                outdriver=nominal,
                bands=tuple(nominal for _ in range(self.org.num_bands)),
            )
            for w in range(self.org.num_ways)
        )
        cvmap = CacheVariationMap(chip_id=-1, die=nominal, ways=ways)
        return evaluate_population(self, ColumnarPopulation.from_maps([cvmap]))
