"""Whole-cache delay and leakage under a sampled variation map.

:class:`CacheCircuitModel` is the reproduction's stand-in for the paper's
per-chip HSPICE run: given a :class:`~repro.variation.sampling.CacheVariationMap`
it produces a :class:`CacheCircuitResult` holding

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
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import NamedTuple, Tuple

from repro.circuit import devices, interconnect, sram
from repro.circuit.devices import subthreshold_current
from repro.circuit.organization import CacheOrganization, PAPER_ORGANIZATION
from repro.circuit.paths import PathSizing, DEFAULT_PATH_SIZING, access_path_delay
from repro.circuit.technology import Technology, TECH45
from repro.core import units
from repro.core.errors import ConfigurationError
from repro.variation.parameters import TABLE1, VariationTable
from repro.variation.sampling import (
    CacheVariationMap,
    WayVariation,
    PERIPHERAL_SEGMENTS,
)

__all__ = ["WayCircuitResult", "CacheCircuitResult", "CacheCircuitModel"]

#: Effective leaking transistor width (m) of each peripheral segment,
#: sized so peripherals contribute a high-single-digit percentage of the
#: nominal cache leakage (the cell array dominates, as in the paper).
PERIPHERAL_LEAK_WIDTHS = {
    "decoder": 200 * units.UM,
    "precharge": 100 * units.UM,
    "senseamp": 120 * units.UM,
    "outdriver": 50 * units.UM,
}


class WayCircuitResult(NamedTuple):
    """Delay and leakage of one cache way.

    A ``NamedTuple``: population evaluation builds two of these per
    (chip, way) — regular and H-YAPD — so construction cost is hot.

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

    def delay_without_band(self, band: int) -> float:
        """Way delay (s) if horizontal band ``band`` were powered down."""
        remaining = [d for i, d in enumerate(self.band_delays) if i != band]
        if not remaining:
            raise ConfigurationError("cannot power down the only band of a way")
        return max(remaining)

    def critical_band(self) -> int:
        """Index of the band holding this way's critical path."""
        return max(range(len(self.band_delays)), key=lambda i: self.band_delays[i])


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

    def band_array_leakage(self, band: int) -> float:
        """Array leakage (W) of horizontal band ``band`` summed over ways."""
        return reduce(add, (way.band_leakage[band] for way in self.ways), 0.0)

    def total_peripheral_leakage(self) -> float:
        """Leakage (W) of all way peripheries."""
        return reduce(add, (way.peripheral_leakage for way in self.ways), 0.0)


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
        # composed helper it replaces term for term (same association
        # order), so the flat kernel below is bit-identical to
        # `access_path_delay` — asserted by the circuit equivalence test.
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
        # Device/technology subexpressions of the flattened kernel; each
        # matches the helper in `devices`/`interconnect`/`decoder` it was
        # lifted from, term for term.
        ratio = tech.temperature_ratio
        self._drive_coeff = tech.drive_k * ratio ** (-tech.mobility_exponent)
        self._leak_coeff = tech.leak_i0 * ratio**2
        self._swing = tech.subthreshold_swing * ratio
        self._miller_eps = tech.coupling_miller * tech.wire_cap_eps
        self._min_spacing = tech.wire_pitch * interconnect._MIN_SPACING_FRACTION
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

    # ------------------------------------------------------------------
    def _way_base(
        self, way: WayVariation
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...], float]:
        """Scale-independent pieces of one way's evaluation.

        Returns ``(base_delays, band_leakage, peripheral_leakage)`` where
        ``base_delays[band]`` is the access-path delay times the band's
        residual, *before* the post-decoder scale — the quantity the
        regular and H-YAPD organisations share. The arithmetic replays
        the composed reference path (`access_path_delay` and friends)
        with band-invariant subterms hoisted out of the band loop;
        every surviving expression keeps the reference's association
        order so results match bit for bit.
        """
        tech = self.tech
        org = self.org
        sizing = self.sizing
        vdd = tech.vdd
        bits_per_bank = org.bits_per_bank
        nominal_lgate = tech.nominal_lgate
        vt_rolloff = tech.vt_rolloff
        alpha = tech.alpha
        delay_coeff = tech.delay_coeff
        drive_coeff = self._drive_coeff
        leak_coeff = self._leak_coeff
        swing = self._swing
        rho = tech.wire_resistivity
        eps = tech.wire_cap_eps
        pitch = tech.wire_pitch
        fringe = tech.wire_fringe_cap
        miller_eps = self._miller_eps
        min_spacing = self._min_spacing
        min_vt = devices._MIN_VT
        min_od = devices._MIN_OVERDRIVE

        # --- decoder segment: threshold/overdrive once, then the decode
        # chain, the global-wordline driver, and the segment's leakage
        params = way.decoder
        dec_lgate = params.lgate
        shortfall = (nominal_lgate - dec_lgate) / nominal_lgate
        dec_vt = params.vt - vt_rolloff * shortfall
        if dec_vt < min_vt:
            dec_vt = min_vt
        overdrive = vdd - dec_vt
        if overdrive < min_od:
            overdrive = min_od
        dec_pow = overdrive**alpha
        area = params.metal_width * params.metal_thickness
        if area <= 0:
            raise ConfigurationError("wire cross-section must be positive")
        dec_r = rho / area
        spacing = pitch - params.metal_width
        if spacing < min_spacing:
            spacing = min_spacing
        dec_c = (
            eps * params.metal_width / params.ild_thickness
            + fringe
            + miller_eps * params.metal_thickness / spacing
        )
        decoder = sizing.decoder
        bus_length = decoder.address_bus_length
        bus_res = vdd / (
            drive_coeff * (decoder.address_driver_width / dec_lgate) * dec_pow
        )
        r_wire = dec_r * bus_length
        c_wire = dec_c * bus_length
        first_gate_cap = self._dec_first_gate_cap
        decode = (
            0.69 * bus_res * (c_wire + first_gate_cap)
            + 0.38 * r_wire * c_wire
            + 0.69 * r_wire * first_gate_cap
        )
        for stage_width, stage_load in self._dec_stages:
            decode += (
                delay_coeff
                * (vdd / (drive_coeff * (stage_width / dec_lgate) * dec_pow))
                * stage_load
            )
        gwl_res = vdd / (
            drive_coeff * (sizing.gwl_driver_width / dec_lgate) * dec_pow
        )

        # --- precharge segment drive
        params = way.precharge
        shortfall = (nominal_lgate - params.lgate) / nominal_lgate
        pre_vt = params.vt - vt_rolloff * shortfall
        if pre_vt < min_vt:
            pre_vt = min_vt
        overdrive = vdd - pre_vt
        if overdrive < min_od:
            overdrive = min_od
        precharge_k = delay_coeff * (
            vdd
            / (
                drive_coeff
                * (sram.PRECHARGE_WIDTH / params.lgate)
                * overdrive**alpha
            )
        )

        # --- sense-amplifier segment
        params = way.senseamp
        shortfall = (nominal_lgate - params.lgate) / nominal_lgate
        sa_vt = params.vt - vt_rolloff * shortfall
        if sa_vt < min_vt:
            sa_vt = min_vt
        overdrive = vdd - sa_vt
        if overdrive < min_od:
            overdrive = min_od
        sense = sram.SENSEAMP_STAGES * (
            delay_coeff
            * (
                vdd
                / (
                    drive_coeff
                    * (sram.SENSEAMP_STAGE_WIDTH / params.lgate)
                    * overdrive**alpha
                )
            )
            * sram.SENSEAMP_STAGE_CAP
        )

        # --- output-driver segment
        params = way.outdriver
        shortfall = (nominal_lgate - params.lgate) / nominal_lgate
        out_vt = params.vt - vt_rolloff * shortfall
        if out_vt < min_vt:
            out_vt = min_vt
        overdrive = vdd - out_vt
        if overdrive < min_od:
            overdrive = min_od
        out_res = vdd / (
            drive_coeff
            * (sizing.output_driver_width / params.lgate)
            * overdrive**alpha
        )

        # --- way-level interconnect
        params = way.params
        area = params.metal_width * params.metal_thickness
        if area <= 0:
            raise ConfigurationError("wire cross-section must be positive")
        way_r = rho / area
        spacing = pitch - params.metal_width
        if spacing < min_spacing:
            spacing = min_spacing
        way_c = (
            eps * params.metal_width / params.ild_thickness
            + fringe
            + miller_eps * params.metal_thickness / spacing
        )

        gwl_load = self._gwl_load
        out_load = sizing.output_load_cap
        lwl_length = self._lwl_length
        cell_gates = self._cell_gates
        bitline_length = self._bitline_length
        bitline_drains = self._bitline_drains
        lwl_width = sizing.lwl_driver_width
        cell_read_width = tech.cell_read_width
        cell_leak_width = tech.cell_leak_width
        sense_swing = tech.sense_swing
        slew = sram.PRECHARGE_SLEW_FRACTION
        global_lengths = self._global_lengths
        bands = way.bands
        band_residual = way.band_residual

        base_delays = []
        band_leakage = []
        for band in range(org.num_bands):
            band_params = bands[band]
            global_length = global_lengths[band]
            way_r_wire = way_r * global_length
            way_c_wire = way_c * global_length

            band_lgate = band_params.lgate
            shortfall = (nominal_lgate - band_lgate) / nominal_lgate
            band_vt = band_params.vt - vt_rolloff * shortfall
            if band_vt < min_vt:
                band_vt = min_vt
            overdrive = vdd - band_vt
            if overdrive < min_od:
                overdrive = min_od
            band_pow = overdrive**alpha
            area = band_params.metal_width * band_params.metal_thickness
            if area <= 0:
                raise ConfigurationError("wire cross-section must be positive")
            band_r = rho / area
            spacing = pitch - band_params.metal_width
            if spacing < min_spacing:
                spacing = min_spacing
            band_c = (
                eps * band_params.metal_width / band_params.ild_thickness
                + fringe
                + miller_eps * band_params.metal_thickness / spacing
            )

            # 1. decode
            delay = decode
            # 2. global wordline out to the target bank
            delay += (
                0.69 * gwl_res * (way_c_wire + gwl_load)
                + 0.38 * way_r_wire * way_c_wire
                + 0.69 * way_r_wire * gwl_load
            )
            # 3. local wordline across the bank
            lwl_res = vdd / (
                drive_coeff * (lwl_width / band_lgate) * band_pow
            )
            lwl_r_wire = band_r * lwl_length
            lwl_c_wire = band_c * lwl_length
            delay += (
                0.69 * lwl_res * (lwl_c_wire + cell_gates)
                + 0.38 * lwl_r_wire * lwl_c_wire
                + 0.69 * lwl_r_wire * cell_gates
            )
            # 4. precharge release and bitline discharge (the bitline
            #    capacitance feeds both terms; the reference computes it
            #    twice from identical inputs, so sharing it is exact)
            bitline_cap = band_c * bitline_length + bitline_drains
            delay += precharge_k * (bitline_cap * slew)
            delay += (
                bitline_cap
                * sense_swing
                / (drive_coeff * (cell_read_width / band_lgate) * band_pow)
            )
            # 5. sense amplification
            delay += sense
            # 6. output drive and data return (same way-level wire)
            delay += (
                0.69 * out_res * (way_c_wire + out_load)
                + 0.38 * way_r_wire * way_c_wire
                + 0.69 * way_r_wire * out_load
            )
            base_delays.append(delay * band_residual(band))
            band_leakage.append(
                bits_per_bank
                * (
                    leak_coeff
                    * (cell_leak_width / band_lgate)
                    * 10.0 ** (-band_vt / swing)
                )
                * vdd
            )

        # --- peripheral leakage, in PERIPHERAL_SEGMENTS order (the
        # thresholds were already computed above for each segment)
        peripheral = (
            leak_coeff
            * (PERIPHERAL_LEAK_WIDTHS["decoder"] / way.decoder.lgate)
            * 10.0 ** (-dec_vt / swing)
            * vdd
            + leak_coeff
            * (PERIPHERAL_LEAK_WIDTHS["precharge"] / way.precharge.lgate)
            * 10.0 ** (-pre_vt / swing)
            * vdd
            + leak_coeff
            * (PERIPHERAL_LEAK_WIDTHS["senseamp"] / way.senseamp.lgate)
            * 10.0 ** (-sa_vt / swing)
            * vdd
            + leak_coeff
            * (PERIPHERAL_LEAK_WIDTHS["outdriver"] / way.outdriver.lgate)
            * 10.0 ** (-out_vt / swing)
            * vdd
        )
        return tuple(base_delays), tuple(band_leakage), peripheral

    def _evaluate_way(self, way: WayVariation) -> WayCircuitResult:
        base_delays, band_leakage, peripheral = self._way_base(way)
        scale = self._delay_scale
        return WayCircuitResult(
            way=way.way,
            band_delays=tuple(base * scale for base in base_delays),
            band_leakage=band_leakage,
            peripheral_leakage=peripheral,
        )

    def _evaluate_way_reference(self, way: WayVariation) -> WayCircuitResult:
        """Composed per-stage evaluation (differential-testing oracle).

        Calls `access_path_delay` per band exactly as the model
        originally did; :meth:`_evaluate_way` must match it bit for bit.
        """
        band_delays = tuple(
            access_path_delay(way, band, self.tech, self.org, self.sizing)
            * way.band_residual(band)
            * self._delay_scale
            for band in range(self.org.num_bands)
        )
        band_leakage = tuple(
            self.org.bits_per_bank
            * sram.cell_leakage(way.bands[band], self.tech)
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

    def evaluate(self, cvmap: CacheVariationMap) -> CacheCircuitResult:
        """Evaluate one sampled cache."""
        if cvmap.num_bands != self.org.num_bands:
            raise ConfigurationError(
                f"variation map has {cvmap.num_bands} bands, "
                f"organisation expects {self.org.num_bands}"
            )
        return CacheCircuitResult(
            chip_id=cvmap.chip_id,
            ways=tuple(self._evaluate_way(way) for way in cvmap.ways),
            hyapd=self.hyapd,
        )

    def evaluate_pair(
        self, hyapd_model: "CacheCircuitModel", cvmap: CacheVariationMap
    ) -> Tuple[CacheCircuitResult, CacheCircuitResult]:
        """Evaluate one sampled cache under both post-decoder layouts.

        The regular and H-YAPD organisations differ only by the uniform
        post-decoder delay scale; everything else about a way's
        evaluation — the Elmore sums, residuals, leakage — is identical
        arithmetic on identical inputs. Sharing the base evaluation
        halves the population's circuit cost while keeping both results
        bit-identical to two independent :meth:`evaluate` calls.
        """
        if self.hyapd or not hyapd_model.hyapd:
            raise ConfigurationError(
                "evaluate_pair expects (regular model).evaluate_pair(hyapd model, ...)"
            )
        if (
            hyapd_model.tech is not self.tech
            or hyapd_model.org is not self.org
            or hyapd_model.sizing is not self.sizing
        ):
            raise ConfigurationError(
                "evaluate_pair needs both models to share tech/org/sizing"
            )
        if cvmap.num_bands != self.org.num_bands:
            raise ConfigurationError(
                f"variation map has {cvmap.num_bands} bands, "
                f"organisation expects {self.org.num_bands}"
            )
        regular_scale = self._delay_scale
        hyapd_scale = hyapd_model._delay_scale
        regular_ways = []
        hyapd_ways = []
        for way in cvmap.ways:
            base_delays, band_leakage, peripheral = self._way_base(way)
            regular_ways.append(
                WayCircuitResult(
                    way=way.way,
                    band_delays=tuple(b * regular_scale for b in base_delays),
                    band_leakage=band_leakage,
                    peripheral_leakage=peripheral,
                )
            )
            hyapd_ways.append(
                WayCircuitResult(
                    way=way.way,
                    band_delays=tuple(b * hyapd_scale for b in base_delays),
                    band_leakage=band_leakage,
                    peripheral_leakage=peripheral,
                )
            )
        return (
            CacheCircuitResult(
                chip_id=cvmap.chip_id, ways=tuple(regular_ways), hyapd=False
            ),
            CacheCircuitResult(
                chip_id=cvmap.chip_id, ways=tuple(hyapd_ways), hyapd=True
            ),
        )

    def nominal(self, table: VariationTable = TABLE1) -> CacheCircuitResult:
        """Evaluate the zero-variation cache (design reference)."""
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
        return self.evaluate(cvmap)
