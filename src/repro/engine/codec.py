"""JSON codecs for the persistent result store.

Encodes the expensive result types — an evaluated
:class:`~repro.yieldmodel.analysis.PopulationResult`, one pipeline
:class:`~repro.uarch.simulator.SimResult` and a yield estimate — to
JSON payloads and back, exactly: a result decoded from disk is
bit-identical to the freshly computed one, which the determinism tests
rely on. Simulation and estimate floats are plain JSON numbers
(``json`` writes shortest round-trip ``repr``). A population's circuit
columns are stored as base64 text of their little-endian float64 bytes
(``<f8``, C order), so NaN, infinities, ``-0.0`` and subnormals survive
byte for byte on any host, and neither direction builds per-chip
objects.
"""

from __future__ import annotations

import base64
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.uarch.simulator import SimResult
from repro.yieldmodel.analysis import PopulationResult
from repro.yieldmodel.constraints import ConstraintPolicy, YieldConstraints
from repro.yieldmodel.estimators.results import (
    estimate_from_dict,
    estimate_to_dict,
)

__all__ = [
    "encode_estimate",
    "decode_estimate",
    "encode_population",
    "decode_population",
    "encode_simulation",
    "decode_simulation",
    "policy_identity",
]

#: Byte order and width of a stored circuit column, whatever the host's.
_STORED = np.dtype("<f8")

#: The stored circuit columns, in :class:`CircuitColumns` argument order.
_COLUMNS = ("band_delays", "band_leakage", "peripheral_leakage")


def policy_identity(policy: ConstraintPolicy) -> Dict[str, object]:
    """The parameters of a constraint policy, for cache keys."""
    return {
        "name": policy.name,
        "delay_sigma_multiple": policy.delay_sigma_multiple,
        "leakage_mean_multiple": policy.leakage_mean_multiple,
    }


# ----------------------------------------------------------------------
# populations
# ----------------------------------------------------------------------
def _encode_columns(columns: CircuitColumns) -> Dict[str, str]:
    """One architecture's circuit columns as base64 ``<f8`` text."""
    return {
        name: base64.b64encode(
            getattr(columns, name).astype(_STORED, copy=False).tobytes()
        ).decode("ascii")
        for name in _COLUMNS
    }


def _decode_columns(
    data: dict, chip_ids: List[int], ways: int, bands: int, hyapd: bool
) -> CircuitColumns:
    """One architecture's stored columns, read in place (no copy on a
    little-endian host)."""
    arrays = []
    for name in _COLUMNS:
        try:
            raw = base64.b64decode(data[name], validate=True)
        except (KeyError, TypeError, ValueError):  # binascii.Error included
            raise ConfigurationError(
                f"{name} is missing or not base64"
            ) from None
        shape = (len(chip_ids), ways, bands)[
            : 2 if name == "peripheral_leakage" else 3
        ]
        if len(raw) != _STORED.itemsize * math.prod(shape):
            raise ConfigurationError(
                f"{name} holds {len(raw)} bytes, not {shape} float64s"
            )
        arrays.append(
            np.frombuffer(raw, _STORED).astype(float, copy=False)
            .reshape(shape)
        )
    return CircuitColumns(chip_ids, *arrays, hyapd=hyapd)


def encode_population(result: PopulationResult) -> dict:
    """A population result (both architectures) as a JSON payload."""
    return {
        "policy": policy_identity(result.policy),
        "constraints": {
            "delay_limit": result.constraints.delay_limit,
            "leakage_limit": result.constraints.leakage_limit,
        },
        "chip_ids": list(result.regular.chip_ids),
        "ways": result.regular.num_ways,
        "bands": result.regular.num_bands,
        "regular": _encode_columns(result.regular),
        "horizontal": _encode_columns(result.horizontal),
    }


def decode_population(payload: dict) -> PopulationResult:
    """Rebuild a population result from a stored payload.

    A damaged payload — a missing column, text that is not base64, a
    column whose bytes do not fit the counts, ways or bands that are
    not counts, chip ids that are not a list of integers — is refused
    with :class:`ConfigurationError`, which the engine treats as a
    damaged store entry and recomputes.
    """
    constraints = YieldConstraints(
        delay_limit=payload["constraints"]["delay_limit"],
        leakage_limit=payload["constraints"]["leakage_limit"],
    )
    policy = ConstraintPolicy(
        name=payload["policy"]["name"],
        delay_sigma_multiple=payload["policy"]["delay_sigma_multiple"],
        leakage_mean_multiple=payload["policy"]["leakage_mean_multiple"],
    )
    chip_ids = payload.get("chip_ids")
    if not isinstance(chip_ids, list) or any(
        type(chip_id) is not int for chip_id in chip_ids
    ):
        raise ConfigurationError("chip_ids must be a list of integers")
    ways, bands = payload.get("ways"), payload.get("bands")
    if any(type(count) is not int or count < 0 for count in (ways, bands)):
        raise ConfigurationError("ways and bands must be counts")
    return PopulationResult(
        constraints=constraints,
        regular=_decode_columns(
            payload.get("regular"), chip_ids, ways, bands, False
        ),
        horizontal=_decode_columns(
            payload.get("horizontal"), chip_ids, ways, bands, True
        ),
        policy=policy,
    )


# ----------------------------------------------------------------------
# yield estimates
# ----------------------------------------------------------------------
def encode_estimate(report) -> dict:
    """Flatten an :class:`EstimateReport` to JSON (floats exact)."""
    return estimate_to_dict(report)


def decode_estimate(payload: dict):
    """Rebuild an :class:`EstimateReport` from a stored payload."""
    return estimate_from_dict(payload)


# ----------------------------------------------------------------------
# simulations
# ----------------------------------------------------------------------
def encode_simulation(result: SimResult) -> dict:
    """Flatten one pipeline simulation result to JSON."""
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "replays": result.replays,
        "lbb_stalls": result.lbb_stalls,
        "slow_way_hits": result.slow_way_hits,
        "branch_mispredicts": result.branch_mispredicts,
        "loads": result.loads,
        "stores": result.stores,
        "hierarchy_stats": dict(result.hierarchy_stats),
    }


def decode_simulation(payload: dict) -> SimResult:
    """Rebuild a pipeline simulation result from a stored payload."""
    return SimResult(
        instructions=int(payload["instructions"]),
        cycles=int(payload["cycles"]),
        replays=int(payload["replays"]),
        lbb_stalls=int(payload["lbb_stalls"]),
        slow_way_hits=int(payload["slow_way_hits"]),
        branch_mispredicts=int(payload["branch_mispredicts"]),
        loads=int(payload["loads"]),
        stores=int(payload["stores"]),
        hierarchy_stats=dict(payload["hierarchy_stats"]),
    )


def way_cycles_identity(
    way_cycles: Optional[Tuple[Optional[int], ...]]
) -> Optional[List[Optional[int]]]:
    """JSON-able form of a way-latency tuple (``None`` entries survive)."""
    if way_cycles is None:
        return None
    return [cycle for cycle in way_cycles]
