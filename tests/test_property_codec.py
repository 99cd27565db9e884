"""Property tests: store codec round-trips for every job result type.

The persistent result store only works if ``decode(encode(x))`` is the
identity — including exact float values, because the determinism suite
compares cached and freshly computed results bit-for-bit. These tests
drive both codecs with seeded random payloads through a real JSON
serialize/parse cycle (exactly what :class:`ResultStore` does on disk).
Populations are rectangular (one ways/bands shape per population); a
ragged payload is refused, and the engine recomputes such an entry.
"""

from __future__ import annotations

import json
import random
from typing import Optional, Tuple

import pytest

from repro.circuit.cache_model import CacheCircuitResult, WayCircuitResult
from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.engine.codec import (
    decode_population,
    decode_simulation,
    encode_population,
    encode_simulation,
    policy_identity,
    way_cycles_identity,
)
from repro.engine.core import Engine, EngineConfig
from repro.experiments.common import ExperimentSettings
from repro.uarch.simulator import SimResult
from repro.yieldmodel.analysis import PopulationResult
from repro.yieldmodel.constraints import ConstraintPolicy, YieldConstraints

NUM_CASES = 25


def _json_cycle(payload: dict) -> dict:
    """Exactly what the store does: serialize to text, parse back."""
    return json.loads(json.dumps(payload))


def _random_circuit(
    rng: random.Random,
    chip_id: int,
    shape: Optional[Tuple[int, int]] = None,
    hyapd: Optional[bool] = None,
) -> CacheCircuitResult:
    """A random circuit; ways, bands and ``hyapd`` are random unless given.

    With neither given, consecutive calls build a ragged list: ways and
    bands vary from chip to chip.
    """
    if shape is None:
        num_ways = rng.choice((2, 4, 8))
        num_bands = rng.choice((2, 4))
    else:
        num_ways, num_bands = shape
    ways = tuple(
        WayCircuitResult(
            way=w,
            band_delays=tuple(
                # Awkward floats on purpose: repr round-tripping must
                # preserve them exactly.
                rng.uniform(0.5e-9, 3e-9) for _ in range(num_bands)
            ),
            band_leakage=tuple(
                rng.uniform(1e-3, 0.2) for _ in range(num_bands)
            ),
            peripheral_leakage=rng.uniform(1e-3, 0.1),
        )
        for w in range(num_ways)
    )
    return CacheCircuitResult(
        chip_id=chip_id,
        ways=ways,
        hyapd=rng.random() < 0.5 if hyapd is None else hyapd,
    )


def _random_population(rng: random.Random) -> PopulationResult:
    """A random rectangular population: one (ways, bands) shape."""
    constraints = YieldConstraints(
        delay_limit=rng.uniform(1e-9, 4e-9),
        leakage_limit=rng.uniform(0.1, 2.0),
    )
    policy = ConstraintPolicy(
        name=f"policy-{rng.randrange(1000)}",
        delay_sigma_multiple=rng.uniform(1.0, 4.0),
        leakage_mean_multiple=rng.uniform(1.0, 2.0),
    )
    count = rng.randint(1, 6)
    shape = (rng.choice((2, 4, 8)), rng.choice((2, 4)))
    return PopulationResult(
        constraints=constraints,
        regular=CircuitColumns.from_circuits(
            [_random_circuit(rng, i, shape, False) for i in range(count)]
        ),
        horizontal=CircuitColumns.from_circuits(
            [_random_circuit(rng, i, shape, True) for i in range(count)]
        ),
        policy=policy,
    )


def _random_simulation(rng: random.Random) -> SimResult:
    instructions = rng.randint(1, 10**7)
    return SimResult(
        instructions=instructions,
        cycles=rng.randint(instructions, 4 * 10**7),
        replays=rng.randint(0, 10**5),
        lbb_stalls=rng.randint(0, 10**5),
        slow_way_hits=rng.randint(0, 10**5),
        branch_mispredicts=rng.randint(0, 10**5),
        loads=rng.randint(0, 10**6),
        stores=rng.randint(0, 10**6),
        hierarchy_stats={
            f"l{level}.{stat}": rng.uniform(0.0, 1e6)
            for level in (1, 2)
            for stat in ("hits", "misses", "miss_rate")
        },
    )


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_population_round_trip(seed):
    rng = random.Random(seed)
    original = _random_population(rng)
    decoded = decode_population(_json_cycle(encode_population(original)))
    assert decoded.constraints == original.constraints
    assert policy_identity(decoded.policy) == policy_identity(original.policy)
    for horizontal in (False, True):
        before = original.chips(horizontal)
        after = decoded.chips(horizontal)
        assert after.circuits.hyapd == before.circuits.hyapd
        assert after.circuits.chip_ids == before.circuits.chip_ids
        for index in range(original.population):
            assert after.circuits.circuit(index) == \
                before.circuits.circuit(index)
        # Derived facts come out identical too (classified again from
        # the decoded columns).
        assert after.circuits.way_delays.tolist() == \
            before.circuits.way_delays.tolist()
        assert after.way_cycles.tolist() == before.way_cycles.tolist()
        assert after.passes.tolist() == before.passes.tolist()
    # Stability: encoding the decoded result reproduces the payload.
    assert encode_population(decoded) == encode_population(original)


def _ragged(payload: dict, damage: int) -> dict:
    """``payload`` with one chip made unlike the others."""
    chip = payload["cases"][-1]
    if damage == 0:
        chip["ways"][0]["band_delays"].pop()  # one band fewer
    elif damage == 1:
        chip["ways"].pop()  # one way fewer
    elif damage == 2:
        chip["hyapd"] = not chip["hyapd"]  # the other architecture
    else:
        chip["ways"].reverse()  # ways out of index order
    return payload


@pytest.mark.parametrize("damage", range(4))
@pytest.mark.parametrize("seed", range(5))
def test_ragged_population_payload_refused(seed, damage):
    """No rectangular population encodes to a ragged payload."""
    rng = random.Random(seed)
    original = _random_population(rng)
    while original.population < 2:
        original = _random_population(rng)
    payload = _ragged(_json_cycle(encode_population(original)), damage)
    with pytest.raises(ConfigurationError):
        decode_population(payload)


def test_engine_recomputes_a_ragged_store_entry(tmp_path):
    settings = ExperimentSettings(seed=5, chips=24)
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path))
    expected = encode_population(engine.population(settings))
    key = engine.population_key(settings)
    engine.store.save("population", key, _ragged(_json_cycle(expected), 0))

    fresh = Engine(EngineConfig(workers=1, cache_dir=tmp_path))
    assert encode_population(fresh.population(settings)) == expected
    assert fresh.stats.jobs_run == 1 and fresh.stats.jobs_cached_disk == 0
    # The recomputed result replaced the damaged entry.
    assert fresh.store.load("population", key) == _json_cycle(expected)


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_simulation_round_trip(seed):
    rng = random.Random(1000 + seed)
    original = _random_simulation(rng)
    decoded = decode_simulation(_json_cycle(encode_simulation(original)))
    assert decoded == original
    assert decoded.cpi == original.cpi
    assert encode_simulation(decoded) == encode_simulation(original)


def test_way_cycles_identity_preserves_disabled_ways():
    assert way_cycles_identity(None) is None
    assert way_cycles_identity((4, None, 5, 4)) == [4, None, 5, 4]
    # And it survives a JSON cycle (None -> null -> None).
    assert json.loads(json.dumps(way_cycles_identity((None, 4)))) == [None, 4]
