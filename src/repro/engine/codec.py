"""JSON codecs for the persistent result store.

Encodes the two expensive result types — an evaluated
:class:`~repro.yieldmodel.analysis.PopulationResult` and one pipeline
:class:`~repro.uarch.simulator.SimResult` — to plain-JSON payloads and
back. Floats survive exactly (``json`` emits ``repr`` shortest-round-trip
floats), so a result decoded from disk is bit-identical to the freshly
computed one; the determinism tests rely on this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.circuit.cache_model import CacheCircuitResult, WayCircuitResult
from repro.circuit.columnar import CircuitColumns
from repro.uarch.simulator import SimResult
from repro.yieldmodel.analysis import PopulationResult
from repro.yieldmodel.constraints import ConstraintPolicy, YieldConstraints

__all__ = [
    "encode_estimate",
    "decode_estimate",
    "encode_population",
    "decode_population",
    "encode_simulation",
    "decode_simulation",
    "policy_identity",
]


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
def _encode_columns(columns: CircuitColumns) -> list:
    """One architecture's columns as the per-chip JSON list."""
    ways = range(columns.num_ways)
    return [
        {"chip_id": chip_id, "hyapd": columns.hyapd, "ways": [
            {
                "way": way,
                "band_delays": delays[way],
                "band_leakage": leakage[way],
                "peripheral_leakage": peripheral[way],
            }
            for way in ways
        ]}
        for chip_id, delays, leakage, peripheral in zip(
            columns.chip_ids,
            columns.band_delays.tolist(),
            columns.band_leakage.tolist(),
            columns.peripheral_leakage.tolist(),
        )
    ]


def _decode_circuit(data: dict) -> CacheCircuitResult:
    return CacheCircuitResult(
        chip_id=int(data["chip_id"]),
        hyapd=bool(data["hyapd"]),
        ways=tuple(
            WayCircuitResult(
                way=int(way["way"]),
                band_delays=tuple(way["band_delays"]),
                band_leakage=tuple(way["band_leakage"]),
                peripheral_leakage=way["peripheral_leakage"],
            )
            for way in data["ways"]
        ),
    )


def encode_population(result: PopulationResult) -> dict:
    """Flatten a population result (both architectures) to JSON."""
    return {
        "policy": policy_identity(result.policy),
        "constraints": {
            "delay_limit": result.constraints.delay_limit,
            "leakage_limit": result.constraints.leakage_limit,
        },
        "cases": _encode_columns(result.regular),
        "h_cases": _encode_columns(result.horizontal),
    }


def decode_population(payload: dict) -> PopulationResult:
    """Rebuild a population result from a stored payload.

    A ragged payload — one no rectangular population encodes to — is
    refused with :class:`ConfigurationError`, which the engine treats
    as a damaged store entry and recomputes.
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
    return PopulationResult(
        constraints=constraints,
        regular=CircuitColumns.from_circuits(
            [_decode_circuit(data) for data in payload["cases"]]
        ),
        horizontal=CircuitColumns.from_circuits(
            [_decode_circuit(data) for data in payload["h_cases"]]
        ),
        policy=policy,
    )


# ----------------------------------------------------------------------
# yield estimates
# ----------------------------------------------------------------------
def encode_estimate(report) -> dict:
    """Flatten an :class:`EstimateReport` to JSON (floats exact)."""
    from repro.yieldmodel.estimators.results import estimate_to_dict

    return estimate_to_dict(report)


def decode_estimate(payload: dict):
    """Rebuild an :class:`EstimateReport` from a stored payload."""
    from repro.yieldmodel.estimators.results import estimate_from_dict

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
