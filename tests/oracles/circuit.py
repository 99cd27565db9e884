"""The composed per-stage circuit physics the columnar kernel replaced.

The device, interconnect, SRAM-stage, decoder and access-path functions
are the ``repro.circuit`` modules ``devices``, ``interconnect``,
``sram``, ``decoder`` and ``paths`` verbatim, gathered into one module:
only their imports changed, and a call that named its sibling module
(``devices.stage_delay``) now names the function directly. The
constants and sizing they read stay in
:mod:`repro.circuit.cache_model`, which the production kernel reads
too. ``evaluate_way_reference`` is the model's
``_evaluate_way_reference`` method verbatim, now a function whose
``self`` is the model: each band's delay is ``access_path_delay`` times
its residual and the post-decoder scale.

``WayCircuitResult`` and ``CacheCircuitResult`` are the per-chip result
types the model once returned, verbatim; ``circuit`` and
``from_circuits`` are the ``CircuitColumns`` methods that converted one
row to and from them, now functions. ``evaluate`` and
``evaluate_population_pair`` wrap the composed physics per chip, which
is what :func:`repro.circuit.columnar.evaluate_population` and
:func:`repro.circuit.columnar.evaluate_population_pair` must reproduce
bit for bit. Never imported by ``src/``.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from repro.circuit.cache_model import (
    CacheCircuitModel,
    DEFAULT_DECODER_SIZING,
    DEFAULT_PATH_SIZING,
    DecoderSizing,
    PERIPHERAL_LEAK_WIDTHS,
    PRECHARGE_SLEW_FRACTION,
    PRECHARGE_WIDTH,
    PathSizing,
    SENSEAMP_STAGE_CAP,
    SENSEAMP_STAGE_WIDTH,
    SENSEAMP_STAGES,
    _MIN_OVERDRIVE,
    _MIN_SPACING_FRACTION,
    _MIN_VT,
)
from repro.circuit.columnar import CircuitColumns
from repro.circuit.organization import CacheOrganization
from repro.circuit.technology import Technology
from repro.core.errors import ConfigurationError
from repro.variation.columnar import ColumnarPopulation
from repro.variation.parameters import ProcessParameters
from repro.variation.sampling import (
    CacheVariationMap,
    PERIPHERAL_SEGMENTS,
    WayVariation,
)

from .sampling import chip_map

__all__ = [
    "CacheCircuitResult",
    "WayCircuitResult",
    "access_path_delay",
    "band_residual",
    "bitline_capacitance",
    "bitline_delay",
    "cell_leakage",
    "circuit",
    "decoder_delay",
    "drive_current",
    "effective_resistance",
    "effective_threshold",
    "elmore_delay",
    "evaluate",
    "evaluate_population_pair",
    "evaluate_way_reference",
    "from_circuits",
    "precharge_delay",
    "senseamp_delay",
    "stage_delay",
    "subthreshold_current",
    "wire_capacitance",
    "wire_capacitance_per_m",
    "wire_resistance",
    "wire_resistance_per_m",
]


# ----------------------------------------------------------------------
# per-chip results and their columns
# ----------------------------------------------------------------------
class WayCircuitResult(NamedTuple):
    """Delay and leakage of one cache way.

    Attributes
    ----------
    way:
        Way index.
    band_delays:
        Access-path delay (s) through each horizontal band of this way.
    band_leakage:
        Array leakage power (W) of each band of this way.
    peripheral_leakage:
        Leakage power (W) of this way's decoder/precharge/sense/output
        periphery.
    """

    way: int
    band_delays: Tuple[float, ...]
    band_leakage: Tuple[float, ...]
    peripheral_leakage: float

    @property
    def delay(self) -> float:
        """Access delay (s) of the way: its slowest band path."""
        return max(self.band_delays)

    @property
    def array_leakage(self) -> float:
        """Total array leakage power (W) of the way.

        Leakage totals add left to right (``sum()`` of floats is
        compensated since Python 3.12; columns must match on any Python).
        """
        return reduce(add, self.band_leakage, 0.0)

    @property
    def leakage(self) -> float:
        """Total leakage power (W) of the way (array + periphery)."""
        return self.array_leakage + self.peripheral_leakage


class CacheCircuitResult(NamedTuple):
    """Delay and leakage of one manufactured cache."""

    chip_id: int
    ways: Tuple[WayCircuitResult, ...]
    hyapd: bool = False

    @property
    def num_ways(self) -> int:
        return len(self.ways)

    @property
    def num_bands(self) -> int:
        return len(self.ways[0].band_delays)

    @property
    def way_delays(self) -> Tuple[float, ...]:
        """Access delay (s) of every way."""
        return tuple(way.delay for way in self.ways)

    @property
    def access_delay(self) -> float:
        """Cache access delay (s): the slowest way (paper Section 5.1)."""
        return max(self.way_delays)

    @property
    def way_leakages(self) -> Tuple[float, ...]:
        """Total leakage power (W) of every way."""
        return tuple(way.leakage for way in self.ways)

    @property
    def total_leakage(self) -> float:
        """Total cache leakage power (W)."""
        return reduce(add, self.way_leakages, 0.0)


#: (WayCircuitResult field, array dimensions) of each circuit column.
_FIELD_DIMS = (
    ("band_delays", 3), ("band_leakage", 3), ("peripheral_leakage", 2)
)


def circuit(columns: CircuitColumns, index: int) -> CacheCircuitResult:
    """Chip ``index`` of ``columns`` as a per-chip :class:`CacheCircuitResult`."""
    delays = columns.band_delays[index].tolist()
    leakage = columns.band_leakage[index].tolist()
    peripheral = columns.peripheral_leakage[index].tolist()
    return CacheCircuitResult(
        columns.chip_ids[index],
        tuple(
            WayCircuitResult(
                way, tuple(delays[way]), tuple(leakage[way]),
                peripheral[way],
            )
            for way in range(columns.num_ways)
        ),
        columns.hyapd,
    )


def from_circuits(circuits: Sequence[CacheCircuitResult]) -> CircuitColumns:
    """Columns of per-chip results; a ragged list (ways or bands that
    vary, ways out of order, mixed architectures) is refused."""
    hyapd = {circuit.hyapd for circuit in circuits}
    if len(hyapd) > 1 or any(
        way.way != index
        for circuit in circuits
        for index, way in enumerate(circuit.ways)
    ):
        raise ConfigurationError(
            "ragged population: mixed architectures or ways out of order"
        )
    arrays = []
    for field, ndim in _FIELD_DIMS:
        rows = [[getattr(way, field) for way in c.ways] for c in circuits]
        try:
            array = np.array(rows, dtype=float) if rows else (
                np.zeros((0,) * ndim)
            )
        except ValueError:  # inhomogeneous nested lengths
            array = None
        if array is None or array.ndim != ndim:
            raise ConfigurationError(
                "ragged population: ways or bands vary between chips"
            )
        arrays.append(array)
    return CircuitColumns(
        [circuit.chip_id for circuit in circuits], *arrays,
        hyapd=hyapd.pop() if hyapd else False,
    )


# ----------------------------------------------------------------------
# devices: threshold roll-off, alpha-power drive, subthreshold leakage
# ----------------------------------------------------------------------
def effective_threshold(params: ProcessParameters, tech: Technology) -> float:
    """Effective threshold voltage (V) after gate-length roll-off.

    ``Vt_eff = Vt - vt_rolloff * (L_nominal - L) / L_nominal`` — a device
    with a shorter-than-nominal channel has a lower threshold, a longer
    channel a higher one.
    """
    shortfall = (tech.nominal_lgate - params.lgate) / tech.nominal_lgate
    return max(params.vt - tech.vt_rolloff * shortfall, _MIN_VT)


def drive_current(width: float, params: ProcessParameters, tech: Technology) -> float:
    """Saturation drive current (A) of a device of the given width (m)."""
    if width <= 0:
        raise ConfigurationError(f"device width must be > 0, got {width}")
    vt_eff = effective_threshold(params, tech)
    overdrive = max(tech.vdd - vt_eff, _MIN_OVERDRIVE)
    mobility = tech.temperature_ratio ** (-tech.mobility_exponent)
    return (
        tech.drive_k * mobility * (width / params.lgate)
        * overdrive**tech.alpha
    )


def subthreshold_current(
    width: float, params: ProcessParameters, tech: Technology
) -> float:
    """Subthreshold (off-state) leakage current (A) of a device (width in m)."""
    if width <= 0:
        raise ConfigurationError(f"device width must be > 0, got {width}")
    vt_eff = effective_threshold(params, tech)
    ratio = tech.temperature_ratio
    swing = tech.subthreshold_swing * ratio  # n*kT/q*ln10 scales with T
    return (
        tech.leak_i0
        * ratio**2
        * (width / params.lgate)
        * 10.0 ** (-vt_eff / swing)
    )


def effective_resistance(
    width: float, params: ProcessParameters, tech: Technology
) -> float:
    """Effective switching resistance (ohm) of a driver of the given width."""
    return tech.vdd / drive_current(width, params, tech)


def stage_delay(
    drive_width: float,
    load_cap: float,
    params: ProcessParameters,
    tech: Technology,
) -> float:
    """Delay (s) of one switching stage driving ``load_cap`` farads."""
    if load_cap < 0:
        raise ConfigurationError(f"load capacitance must be >= 0, got {load_cap}")
    return tech.delay_coeff * effective_resistance(drive_width, params, tech) * load_cap


# ----------------------------------------------------------------------
# interconnect: wire R/C with coupling, Elmore delay
# ----------------------------------------------------------------------
def wire_resistance_per_m(params: ProcessParameters, tech: Technology) -> float:
    """Wire resistance per metre (ohm/m) for the sampled W and T."""
    area = params.metal_width * params.metal_thickness
    if area <= 0:
        raise ConfigurationError("wire cross-section must be positive")
    return tech.wire_resistivity / area


def wire_capacitance_per_m(params: ProcessParameters, tech: Technology) -> float:
    """Wire capacitance per metre (F/m): ground + fringe + Miller-coupled."""
    ground = tech.wire_cap_eps * params.metal_width / params.ild_thickness
    spacing = max(
        tech.wire_pitch - params.metal_width,
        tech.wire_pitch * _MIN_SPACING_FRACTION,
    )
    coupling = (
        tech.coupling_miller * tech.wire_cap_eps * params.metal_thickness / spacing
    )
    return ground + tech.wire_fringe_cap + coupling


def wire_resistance(length: float, params: ProcessParameters, tech: Technology) -> float:
    """Total resistance (ohm) of a wire of the given length (m)."""
    if length < 0:
        raise ConfigurationError(f"wire length must be >= 0, got {length}")
    return wire_resistance_per_m(params, tech) * length


def wire_capacitance(length: float, params: ProcessParameters, tech: Technology) -> float:
    """Total capacitance (F) of a wire of the given length (m)."""
    if length < 0:
        raise ConfigurationError(f"wire length must be >= 0, got {length}")
    return wire_capacitance_per_m(params, tech) * length


def elmore_delay(
    driver_resistance: float,
    length: float,
    params: ProcessParameters,
    tech: Technology,
    load_cap: float = 0.0,
) -> float:
    """Elmore delay (s) of a distributed RC line.

    Parameters
    ----------
    driver_resistance:
        Effective resistance of the lumped driver (ohm).
    length:
        Wire length (m).
    params:
        Sampled interconnect parameters for this segment.
    tech:
        Technology constants.
    load_cap:
        Lumped capacitance at the far end (F).
    """
    if driver_resistance < 0 or load_cap < 0:
        raise ConfigurationError("driver resistance and load cap must be >= 0")
    r_wire = wire_resistance(length, params, tech)
    c_wire = wire_capacitance(length, params, tech)
    return (
        0.69 * driver_resistance * (c_wire + load_cap)
        + 0.38 * r_wire * c_wire
        + 0.69 * r_wire * load_cap
    )


# ----------------------------------------------------------------------
# SRAM array stages: precharge, bitline discharge, sense, cell leakage
# ----------------------------------------------------------------------
def bitline_capacitance(
    params: ProcessParameters, tech: Technology, org: CacheOrganization
) -> float:
    """Capacitance (F) of one bitline segment: wire plus cell drains."""
    length = org.bitline_segment_length(tech.cell_height)
    wire = wire_capacitance(length, params, tech)
    drains = org.rows_per_segment * tech.drain_cap_per_width * tech.cell_read_width
    return wire + drains


def bitline_delay(
    params: ProcessParameters, tech: Technology, org: CacheOrganization
) -> float:
    """Time (s) for the accessed cell to develop the sense swing."""
    cap = bitline_capacitance(params, tech, org)
    current = drive_current(tech.cell_read_width, params, tech)
    return cap * tech.sense_swing / current


def precharge_delay(
    precharge_params: ProcessParameters,
    array_params: ProcessParameters,
    tech: Technology,
    org: CacheOrganization,
) -> float:
    """Precharge-release overhead (s) before the bitline can discharge.

    The precharge devices' own parameters set the drive; the bitline load
    comes from the array segment's parameters.
    """
    cap = bitline_capacitance(array_params, tech, org) * PRECHARGE_SLEW_FRACTION
    return stage_delay(PRECHARGE_WIDTH, cap, precharge_params, tech)


def senseamp_delay(params: ProcessParameters, tech: Technology) -> float:
    """Sense amplifier resolution delay (s): a short regenerative chain."""
    per_stage = stage_delay(
        SENSEAMP_STAGE_WIDTH, SENSEAMP_STAGE_CAP, params, tech
    )
    return SENSEAMP_STAGES * per_stage


def cell_leakage(params: ProcessParameters, tech: Technology) -> float:
    """Subthreshold leakage current (A) of one SRAM cell."""
    return subthreshold_current(tech.cell_leak_width, params, tech)


# ----------------------------------------------------------------------
# decoder chain and the composed access path
# ----------------------------------------------------------------------
def decoder_delay(
    params: ProcessParameters,
    tech: Technology,
    sizing: DecoderSizing = DEFAULT_DECODER_SIZING,
) -> float:
    """Delay (s) from address arrival to the global wordline driver input."""
    # Address bus: driven RC line loaded by the first predecode gates.
    first_gate_cap = tech.gate_cap_per_width * sizing.stage_widths[0] * 4
    bus_delay = elmore_delay(
        effective_resistance(sizing.address_driver_width, params, tech),
        sizing.address_bus_length,
        params,
        tech,
        load_cap=first_gate_cap,
    )
    # Predecode/decode chain: each stage drives the next, the last stage
    # drives the global wordline driver gate.
    total = bus_delay
    widths = sizing.stage_widths
    for i, width in enumerate(widths):
        if i + 1 < len(widths):
            load_width = widths[i + 1] * sizing.stage_fanout
        else:
            load_width = sizing.wordline_driver_width
        load_cap = tech.gate_cap_per_width * load_width
        total += stage_delay(width, load_cap, params, tech)
    return total


def access_path_delay(
    way: WayVariation,
    band: int,
    tech: Technology,
    org: CacheOrganization,
    sizing: PathSizing = DEFAULT_PATH_SIZING,
) -> float:
    """Address-to-data delay (s) through ``way`` and horizontal band ``band``."""
    band_params = way.bands[band]
    global_length = org.global_wire_length(band, tech.cell_height)

    # 1. decode
    delay = decoder_delay(way.decoder, tech, sizing.decoder)

    # 2. global wordline out to the target bank (way-level metal)
    gwl_load = tech.gate_cap_per_width * sizing.lwl_driver_width
    delay += elmore_delay(
        effective_resistance(sizing.gwl_driver_width, way.decoder, tech),
        global_length,
        way.params,
        tech,
        load_cap=gwl_load,
    )

    # 3. local wordline across the bank: the wire plus every cell's access
    #    transistor gate on the row.
    lwl_length = org.wordline_length(tech.cell_width)
    cell_gates = org.cols_per_bank * tech.gate_cap_per_width * tech.cell_read_width
    delay += elmore_delay(
        effective_resistance(sizing.lwl_driver_width, band_params, tech),
        lwl_length,
        band_params,
        tech,
        load_cap=cell_gates,
    )

    # 4. precharge release and bitline discharge
    delay += precharge_delay(way.precharge, band_params, tech, org)
    delay += bitline_delay(band_params, tech, org)

    # 5. sense amplification
    delay += senseamp_delay(way.senseamp, tech)

    # 6. output drive and data return past `band` banks (way-level metal)
    delay += elmore_delay(
        effective_resistance(
            sizing.output_driver_width, way.outdriver, tech
        ),
        global_length,
        way.params,
        tech,
        load_cap=sizing.output_load_cap,
    )
    return delay


# ----------------------------------------------------------------------
# whole-cache evaluation
# ----------------------------------------------------------------------
def band_residual(way: WayVariation, band: int) -> float:
    """Residual delay multiplier of ``band`` (1.0 when not sampled); once
    ``WayVariation.band_residual``."""
    if not way.band_residuals:
        return 1.0
    return way.band_residuals[band]


def evaluate_way_reference(
    self: CacheCircuitModel, way: WayVariation
) -> WayCircuitResult:
    """Composed per-stage evaluation of one way under model ``self``."""
    band_delays = tuple(
        access_path_delay(way, band, self.tech, self.org, self.sizing)
        * band_residual(way, band)
        * self._delay_scale
        for band in range(self.org.num_bands)
    )
    band_leakage = tuple(
        self.org.bits_per_bank
        * cell_leakage(way.bands[band], self.tech)
        * self.tech.vdd
        for band in range(self.org.num_bands)
    )
    peripheral = reduce(add, (
        subthreshold_current(
            PERIPHERAL_LEAK_WIDTHS[name], way.peripheral(name), self.tech
        )
        * self.tech.vdd
        for name in PERIPHERAL_SEGMENTS
    ), 0.0)
    return WayCircuitResult(
        way=way.way,
        band_delays=band_delays,
        band_leakage=band_leakage,
        peripheral_leakage=peripheral,
    )


def evaluate(
    model: CacheCircuitModel, cvmap: CacheVariationMap
) -> CacheCircuitResult:
    """The composed evaluation of one sampled cache under ``model``."""
    return CacheCircuitResult(
        chip_id=cvmap.chip_id,
        ways=tuple(evaluate_way_reference(model, way) for way in cvmap.ways),
        hyapd=model.hyapd,
    )


def evaluate_population_pair(
    regular_model: CacheCircuitModel,
    hyapd_model: CacheCircuitModel,
    population: ColumnarPopulation,
) -> Tuple[CircuitColumns, CircuitColumns]:
    """The reference for the columnar pair evaluation: every chip of
    ``population`` through the composed physics, as columns."""
    maps = [chip_map(population, i) for i in range(len(population.chip_ids))]
    return tuple(
        from_circuits([evaluate(model, m) for m in maps])
        for model in (regular_model, hyapd_model)
    )
