"""Columnar circuit evaluation: the one circuit path.

Every access-path delay and leakage figure of a sampled population is
computed here at once: each scalar expression of the composed per-stage
physics (the device, interconnect, SRAM-stage, decoder and access-path
functions of the oracle in ``tests/oracles/circuit.py``) becomes the
identical elementwise expression over ``(chips, ways)``- or ``(chips,
ways, bands)``-shaped arrays, with band-invariant subterms hoisted and
the oracle's operation order and association kept, so each element is
bit-identical to the composed evaluation (asserted by
``tests/test_columnar_diff.py``).

The production entry point, :func:`evaluate_population_pair`, produces
the regular *and* H-YAPD :class:`CircuitColumns` in one pass (they
differ only by the uniform post-decoder delay scale);
:func:`evaluate_population` serves one architecture. Population results
stay columns from here on, one row per chip.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.circuit.cache_model import (
    CacheCircuitModel,
    PERIPHERAL_LEAK_WIDTHS,
    PRECHARGE_SLEW_FRACTION,
    PRECHARGE_WIDTH,
    SENSEAMP_STAGE_CAP,
    SENSEAMP_STAGE_WIDTH,
    SENSEAMP_STAGES,
    _MIN_OVERDRIVE,
    _MIN_VT,
)
from repro.core.errors import ConfigurationError
from repro.variation.columnar import ColumnarPopulation

__all__ = ["CircuitColumns", "evaluate_population", "evaluate_population_pair"]

# PARAMETER_NAMES order of the trailing parameter axis.
_LGATE, _VT, _METAL_WIDTH, _METAL_THICKNESS, _ILD = range(5)


class CircuitColumns:
    """A population's delays and leakage as read-only columns.

    Chip ``i`` is row ``i``: the access-path delay (s) and array leakage
    (W) of every (way, band), and the peripheral leakage (W) of every
    way. Way and access delays (slowest band, slowest way) and way and
    total leakage (added left to right) are derived once, here.
    """

    def __init__(
        self,
        chip_ids: Sequence[int],
        band_delays: np.ndarray,
        band_leakage: np.ndarray,
        peripheral_leakage: np.ndarray,
        hyapd: bool = False,
    ) -> None:
        if (
            band_delays.ndim != 3
            or band_leakage.shape != band_delays.shape
            or peripheral_leakage.shape != band_delays.shape[:2]
            or len(chip_ids) != band_delays.shape[0]
        ):
            raise ConfigurationError(
                "circuit columns need (chips, ways, bands) delays and "
                "leakage, (chips, ways) peripheral leakage and one id per chip"
            )
        self.chip_ids = tuple(chip_ids)
        self.hyapd = bool(hyapd)
        self.band_delays = band_delays  # (C, W, B) seconds
        self.band_leakage = band_leakage  # (C, W, B) watts
        self.peripheral_leakage = peripheral_leakage  # (C, W) watts
        self.way_delays = band_delays.max(axis=2, initial=-np.inf)  # (C, W)
        self.access_delays = self.way_delays.max(axis=1, initial=-np.inf)
        self.way_leakages = left_sum(band_leakage, 2) + peripheral_leakage
        self.total_leakage = left_sum(self.way_leakages, 1)  # (C,)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.chip_ids)

    @property
    def num_ways(self) -> int:
        return self.band_delays.shape[1]

    @property
    def num_bands(self) -> int:
        return self.band_delays.shape[2]

    def take(self, rows: np.ndarray) -> "CircuitColumns":
        """The chips at indices ``rows``, in that order, as new columns.

        Every column is computed row by row, so each taken row keeps its
        bytes; ``take(np.arange(n))`` is the ``n``-chip population.
        """
        return CircuitColumns(
            [self.chip_ids[index] for index in rows.tolist()],
            self.band_delays[rows],
            self.band_leakage[rows],
            self.peripheral_leakage[rows],
            self.hyapd,
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence["CircuitColumns"]
    ) -> "CircuitColumns":
        """Shards in chip order as one population (empty shards skipped)."""
        parts = [part for part in parts if len(part)] or list(parts[:1])
        if len(parts) == 1:
            return parts[0]
        return cls(
            [chip_id for part in parts for chip_id in part.chip_ids],
            np.concatenate([part.band_delays for part in parts]),
            np.concatenate([part.band_leakage for part in parts]),
            np.concatenate([part.peripheral_leakage for part in parts]),
            parts[0].hyapd,
        )


def left_sum(array: np.ndarray, axis: int) -> np.ndarray:
    """Sum over ``axis`` from 0.0, left to right, as ``reduce(add, ...,
    0.0)`` does per chip (``ndarray.sum`` adds pairwise: other rounding)."""
    parts = np.moveaxis(array, axis, 0)
    total = np.zeros(parts.shape[1:])
    for part in parts:
        total += part
    return total


def _effective_vt(
    lgate: np.ndarray, vt: np.ndarray, model: CacheCircuitModel
) -> np.ndarray:
    """Gate-length roll-off plus the minimum-Vt floor (elementwise)."""
    tech = model.tech
    shortfall = (tech.nominal_lgate - lgate) / tech.nominal_lgate
    return np.maximum(vt - tech.vt_rolloff * shortfall, _MIN_VT)


def _pow_columns(base: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``base ** exponent`` via scalar pow.

    NumPy's vectorised pow kernels (SIMD) can differ from the scalar
    libm pow the composed oracle uses by one ulp, so the few pow
    sites evaluate element by element with Python's ``**`` — the exact
    operation of the oracle. Every other operation in this module
    (+, -, *, /, min, max) is elementwise IEEE arithmetic and therefore
    identical either way.
    """
    flat = base.reshape(-1).tolist()
    out = np.array([value**exponent for value in flat])
    return out.reshape(base.shape)


def _pow10_columns(exponent: np.ndarray) -> np.ndarray:
    """Elementwise ``10.0 ** exponent`` via scalar pow (see above)."""
    flat = exponent.reshape(-1).tolist()
    out = np.array([10.0**value for value in flat])
    return out.reshape(exponent.shape)


def _overdrive_pow(vt: np.ndarray, model: CacheCircuitModel) -> np.ndarray:
    overdrive = np.maximum(model.tech.vdd - vt, _MIN_OVERDRIVE)
    return _pow_columns(overdrive, model.tech.alpha)


def _wire_rc(
    params: np.ndarray, model: CacheCircuitModel
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-unit-length wire resistance and capacitance (elementwise)."""
    tech = model.tech
    width = params[..., _METAL_WIDTH]
    thickness = params[..., _METAL_THICKNESS]
    area = width * thickness
    if np.any(area <= 0):
        raise ConfigurationError("wire cross-section must be positive")
    resistance = tech.wire_resistivity / area
    spacing = np.maximum(tech.wire_pitch - width, model._min_spacing)
    capacitance = (
        tech.wire_cap_eps * width / params[..., _ILD]
        + tech.wire_fringe_cap
        + model._miller_eps * thickness / spacing
    )
    return resistance, capacitance


def _subthreshold_leakage(
    width: float, lgate: np.ndarray, vt: np.ndarray, model: CacheCircuitModel
) -> np.ndarray:
    """Leakage power (W) of one segment: I_sub * Vdd (elementwise)."""
    return (
        model._leak_coeff
        * (width / lgate)
        * _pow10_columns(-vt / model._swing)
        * model.tech.vdd
    )


def _base_columns(
    model: CacheCircuitModel, population: ColumnarPopulation
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate every chip's access paths and leakage in bulk.

    Returns ``(base_delays, band_leakage, peripheral_leakage)``:
    ``base_delays`` is each (chip, way, band) access-path delay including
    its residual but before the post-decoder scale — the quantity the
    regular and H-YAPD organisations share. The body is the oracle's
    ``access_path_delay`` per band, flattened, with arrays in place of
    scalars — same subexpressions, same accumulation order.
    """
    if population.num_ways != model.org.num_ways:
        raise ConfigurationError(
            f"population has {population.num_ways} ways, "
            f"organisation expects {model.org.num_ways}"
        )
    if population.num_bands != model.org.num_bands:
        raise ConfigurationError(
            f"population has {population.num_bands} bands, "
            f"organisation expects {model.org.num_bands}"
        )
    tech = model.tech
    org = model.org
    sizing = model.sizing
    vdd = tech.vdd
    drive_coeff = model._drive_coeff
    delay_coeff = tech.delay_coeff

    # --- decoder segment: decode chain, GWL drive, leakage threshold
    dec = population.peripherals[:, :, 0, :]
    dec_lgate = dec[..., _LGATE]
    dec_vt = _effective_vt(dec_lgate, dec[..., _VT], model)
    dec_pow = _overdrive_pow(dec_vt, model)
    dec_r, dec_c = _wire_rc(dec, model)
    decoder = sizing.decoder
    bus_length = decoder.address_bus_length
    bus_res = vdd / (
        drive_coeff * (decoder.address_driver_width / dec_lgate) * dec_pow
    )
    r_wire = dec_r * bus_length
    c_wire = dec_c * bus_length
    first_gate_cap = model._dec_first_gate_cap
    decode = (
        0.69 * bus_res * (c_wire + first_gate_cap)
        + 0.38 * r_wire * c_wire
        + 0.69 * r_wire * first_gate_cap
    )
    for stage_width, stage_load in model._dec_stages:
        decode += (
            delay_coeff
            * (vdd / (drive_coeff * (stage_width / dec_lgate) * dec_pow))
            * stage_load
        )
    gwl_res = vdd / (
        drive_coeff * (sizing.gwl_driver_width / dec_lgate) * dec_pow
    )

    # --- precharge segment drive
    pre = population.peripherals[:, :, 1, :]
    pre_vt = _effective_vt(pre[..., _LGATE], pre[..., _VT], model)
    precharge_k = delay_coeff * (
        vdd
        / (
            drive_coeff
            * (PRECHARGE_WIDTH / pre[..., _LGATE])
            * _overdrive_pow(pre_vt, model)
        )
    )

    # --- sense-amplifier segment
    sa = population.peripherals[:, :, 2, :]
    sa_vt = _effective_vt(sa[..., _LGATE], sa[..., _VT], model)
    sense = SENSEAMP_STAGES * (
        delay_coeff
        * (
            vdd
            / (
                drive_coeff
                * (SENSEAMP_STAGE_WIDTH / sa[..., _LGATE])
                * _overdrive_pow(sa_vt, model)
            )
        )
        * SENSEAMP_STAGE_CAP
    )

    # --- output-driver segment
    out = population.peripherals[:, :, 3, :]
    out_vt = _effective_vt(out[..., _LGATE], out[..., _VT], model)
    out_res = vdd / (
        drive_coeff
        * (sizing.output_driver_width / out[..., _LGATE])
        * _overdrive_pow(out_vt, model)
    )

    # --- way-level interconnect
    way_r, way_c = _wire_rc(population.way_params, model)

    # --- per-band paths, all (C, W, B)
    global_lengths = np.array(model._global_lengths)  # (B,)
    way_r_wire = way_r[:, :, None] * global_lengths
    way_c_wire = way_c[:, :, None] * global_lengths
    bands = population.bands
    band_lgate = bands[..., _LGATE]
    band_vt = _effective_vt(band_lgate, bands[..., _VT], model)
    band_pow = _overdrive_pow(band_vt, model)
    band_r, band_c = _wire_rc(bands, model)

    # 1. decode
    delay = np.empty_like(band_pow)
    delay[:] = decode[:, :, None]
    # 2. global wordline out to the target bank
    gwl_load = model._gwl_load
    delay += (
        0.69 * gwl_res[:, :, None] * (way_c_wire + gwl_load)
        + 0.38 * way_r_wire * way_c_wire
        + 0.69 * way_r_wire * gwl_load
    )
    # 3. local wordline across the bank
    lwl_res = vdd / (
        drive_coeff * (sizing.lwl_driver_width / band_lgate) * band_pow
    )
    lwl_r_wire = band_r * model._lwl_length
    lwl_c_wire = band_c * model._lwl_length
    cell_gates = model._cell_gates
    delay += (
        0.69 * lwl_res * (lwl_c_wire + cell_gates)
        + 0.38 * lwl_r_wire * lwl_c_wire
        + 0.69 * lwl_r_wire * cell_gates
    )
    # 4. precharge release and bitline discharge
    bitline_cap = band_c * model._bitline_length + model._bitline_drains
    delay += precharge_k[:, :, None] * (
        bitline_cap * PRECHARGE_SLEW_FRACTION
    )
    delay += (
        bitline_cap
        * tech.sense_swing
        / (drive_coeff * (tech.cell_read_width / band_lgate) * band_pow)
    )
    # 5. sense amplification
    delay += sense[:, :, None]
    # 6. output drive and data return
    delay += (
        0.69 * out_res[:, :, None] * (way_c_wire + sizing.output_load_cap)
        + 0.38 * way_r_wire * way_c_wire
        + 0.69 * way_r_wire * sizing.output_load_cap
    )
    base_delays = delay * population.band_residuals

    band_leakage = (
        org.bits_per_bank
        * (
            model._leak_coeff
            * (tech.cell_leak_width / band_lgate)
            * _pow10_columns(-band_vt / model._swing)
        )
        * vdd
    )

    # --- peripheral leakage, in PERIPHERAL_SEGMENTS order (same
    # left-to-right four-term sum as the reference)
    peripheral = (
        _subthreshold_leakage(
            PERIPHERAL_LEAK_WIDTHS["decoder"], dec_lgate, dec_vt, model
        )
        + _subthreshold_leakage(
            PERIPHERAL_LEAK_WIDTHS["precharge"], pre[..., _LGATE], pre_vt, model
        )
        + _subthreshold_leakage(
            PERIPHERAL_LEAK_WIDTHS["senseamp"], sa[..., _LGATE], sa_vt, model
        )
        + _subthreshold_leakage(
            PERIPHERAL_LEAK_WIDTHS["outdriver"], out[..., _LGATE], out_vt, model
        )
    )
    return base_delays, band_leakage, peripheral


def evaluate_population(
    model: CacheCircuitModel, population: ColumnarPopulation
) -> CircuitColumns:
    """``model``'s delays and leakage for every chip of ``population``."""
    base_delays, band_leakage, peripheral = _base_columns(model, population)
    return CircuitColumns(
        population.chip_ids,
        base_delays * model._delay_scale,
        band_leakage,
        peripheral,
        hyapd=model.hyapd,
    )


def evaluate_population_pair(
    regular_model: CacheCircuitModel,
    hyapd_model: CacheCircuitModel,
    population: ColumnarPopulation,
) -> Tuple[CircuitColumns, CircuitColumns]:
    """Both architectures' columns from one bulk evaluation.

    The regular and H-YAPD organisations differ only by the uniform
    post-decoder delay scale, so one evaluation is scaled by both; the
    two share their leakage arrays.
    """
    if regular_model.hyapd or not hyapd_model.hyapd:
        raise ConfigurationError(
            "evaluate_population_pair expects (regular model, hyapd model)"
        )
    if (
        hyapd_model.tech is not regular_model.tech
        or hyapd_model.org is not regular_model.org
        or hyapd_model.sizing is not regular_model.sizing
    ):
        raise ConfigurationError(
            "evaluate_population_pair needs both models to share "
            "tech/org/sizing"
        )
    base_delays, band_leakage, peripheral = _base_columns(
        regular_model, population
    )
    return (
        CircuitColumns(
            population.chip_ids,
            base_delays * regular_model._delay_scale,
            band_leakage,
            peripheral,
            hyapd=False,
        ),
        CircuitColumns(
            population.chip_ids,
            base_delays * hyapd_model._delay_scale,
            band_leakage,
            peripheral,
            hyapd=True,
        ),
    )
