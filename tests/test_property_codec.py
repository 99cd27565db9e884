"""Property tests: store codec round-trips for every job result type.

The persistent result store only works if ``decode(encode(x))`` is the
identity — including exact float values, because the determinism suite
compares cached and freshly computed results bit-for-bit. These tests
drive the codecs with seeded random payloads through a real JSON
serialize/parse cycle (exactly what :class:`ResultStore` does on disk).
A population's circuit columns are stored as base64 little-endian
float64 bytes: every value (NaN payloads, infinities, ``-0.0``,
subnormals) survives byte for byte through a real store, a hand-built
payload pins the byte order, and a damaged payload is refused, which
makes the engine recompute the entry.
"""

from __future__ import annotations

import base64
import json
import random
import struct
from typing import Optional, Tuple

import numpy as np
import pytest

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
from repro.engine.store import ResultStore
from repro.experiments.common import ExperimentSettings
from repro.uarch.simulator import SimResult
from repro.yieldmodel.analysis import PopulationResult
from repro.yieldmodel.constraints import ConstraintPolicy, YieldConstraints

from oracles.circuit import (
    CacheCircuitResult,
    WayCircuitResult,
    circuit,
    from_circuits,
)

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
        regular=from_circuits(
            [_random_circuit(rng, i, shape, False) for i in range(count)]
        ),
        horizontal=from_circuits(
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
            assert circuit(after.circuits, index) == \
                circuit(before.circuits, index)
        # Derived facts come out identical too (classified again from
        # the decoded columns).
        assert after.circuits.way_delays.tolist() == \
            before.circuits.way_delays.tolist()
        assert after.way_cycles.tolist() == before.way_cycles.tolist()
        assert after.passes.tolist() == before.passes.tolist()
    # Stability: encoding the decoded result reproduces the payload.
    assert encode_population(decoded) == encode_population(original)


def _short_column(payload: dict) -> None:
    """One float fewer in a column than the counts call for."""
    raw = base64.b64decode(payload["regular"]["band_delays"])
    payload["regular"]["band_delays"] = base64.b64encode(raw[:-8]).decode()


def _not_base64(payload: dict) -> None:
    """A character outside the alphabet, which a lax decoder would skip."""
    text = payload["horizontal"]["band_leakage"]
    payload["horizontal"]["band_leakage"] = text[:4] + "*" + text[4:]


def _negative_count(payload: dict) -> None:
    """Both counts negated: the band columns' byte lengths still fit."""
    payload["ways"], payload["bands"] = -payload["ways"], -payload["bands"]


def _fractional_count(payload: dict) -> None:
    """A count of the right size as a JSON float."""
    payload["bands"] = float(payload["bands"])


def _chip_id_missing(payload: dict) -> None:
    payload["chip_ids"].pop()


def _column_missing(payload: dict) -> None:
    del payload["horizontal"]["peripheral_leakage"]


def _chip_id_not_int(payload: dict) -> None:
    payload["chip_ids"][0] = str(payload["chip_ids"][0])


#: The ways a stored population payload can be damaged; each is refused.
_DAMAGE = (
    _short_column, _not_base64, _negative_count, _fractional_count,
    _chip_id_missing, _column_missing, _chip_id_not_int,
)


def _ragged(payload: dict, damage: int) -> dict:
    """``payload`` with damage number ``damage`` (see :data:`_DAMAGE`)."""
    _DAMAGE[damage](payload)
    return payload


@pytest.mark.parametrize("damage", range(len(_DAMAGE)))
@pytest.mark.parametrize("seed", range(5))
def test_ragged_population_payload_refused(seed, damage):
    """No population encodes to a damaged payload."""
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
    engine.clear_memory()  # no live population left to share its chips

    fresh = Engine(EngineConfig(workers=1, cache_dir=tmp_path))
    assert encode_population(fresh.population(settings)) == expected
    assert fresh.stats.jobs_run == 1 and fresh.stats.jobs_cached_disk == 0
    # The recomputed result replaced the damaged entry.
    assert fresh.store.load("population", key) == _json_cycle(expected)


# ----------------------------------------------------------------------
# population columns: exact bytes through a real store
# ----------------------------------------------------------------------
_COLUMNS = ("band_delays", "band_leakage", "peripheral_leakage")


def _bits(pattern: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


#: Doubles a text codec could lose: NaNs with payloads and signs,
#: infinities, signed zeros, subnormals and the extremes of the range.
_SPECIALS = np.array([
    float("nan"), _bits(0xFFF8000000000000), _bits(0x7FF0000000000001),
    _bits(0x7FF8DEADBEEF0001), float("inf"), float("-inf"), 0.0, -0.0,
    5e-324, -5e-324, _bits(0x000FFFFFFFFFFFFF), 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300,
])


def _planted_columns(
    rng: np.random.Generator, chips: int, ways: int, bands: int,
    hyapd: bool,
) -> CircuitColumns:
    """Random columns with a third of their values special, each special
    once before any repeats.

    Band 0 of every way keeps a positive delay, so every way delay is
    positive or NaN and the population classifies.
    """
    shape = (chips, ways, bands)
    delays = rng.uniform(0.5e-9, 3e-9, shape)
    leakage = rng.uniform(1e-3, 0.2, shape)
    peripheral = rng.uniform(1e-3, 0.1, shape[:2])
    for array in (delays[:, :, 1:], leakage, peripheral):
        planted = rng.permutation(array.size)[: (array.size + 2) // 3]
        array.flat[planted] = np.resize(rng.permutation(_SPECIALS),
                                        planted.size)
    return CircuitColumns(
        [3 * chip + 1 for chip in range(chips)], delays, leakage,
        peripheral, hyapd=hyapd,
    )


def _planted_population(seed: int, chips: int, ways: int, bands: int):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # classifying NaN and inf delays
        return PopulationResult(
            YieldConstraints(delay_limit=2e-9, leakage_limit=1.5),
            _planted_columns(rng, chips, ways, bands, False),
            _planted_columns(rng, chips, ways, bands, True),
            ConstraintPolicy("planted", 3.0, 1.5),
        )


def _assert_same_columns(after: CircuitColumns, before: CircuitColumns):
    assert after.chip_ids == before.chip_ids
    assert after.hyapd == before.hyapd
    for name in _COLUMNS:
        decoded, original = getattr(after, name), getattr(before, name)
        assert decoded.shape == original.shape, name
        assert decoded.tobytes() == original.tobytes(), name


@pytest.mark.parametrize("bands", (2, 4))
@pytest.mark.parametrize("ways", (2, 4, 8))
@pytest.mark.parametrize("chips", (0, 1, 37))
def test_population_columns_survive_the_store_bit_for_bit(
    tmp_path, chips, ways, bands
):
    original = _planted_population(100 * chips + 10 * ways + bands,
                                   chips, ways, bands)
    store = ResultStore(tmp_path / "store")
    key = ResultStore.key_for("population", {"chips": chips})
    store.save("population", key, encode_population(original))
    with np.errstate(all="ignore"):
        decoded = decode_population(store.load("population", key))
    assert decoded.constraints == original.constraints
    assert policy_identity(decoded.policy) == policy_identity(original.policy)
    _assert_same_columns(decoded.regular, original.regular)
    _assert_same_columns(decoded.horizontal, original.horizontal)
    if chips == 37:  # every special was planted
        leakage = decoded.regular.band_leakage.reshape(-1).view(np.uint64)
        assert set(_SPECIALS.view(np.uint64).tolist()) <= set(leakage.tolist())


def test_known_little_endian_bytes_decode_to_known_values():
    """One chip, one way, two bands, written out byte by byte."""

    def column(hex_bytes: str) -> str:
        return base64.b64encode(bytes.fromhex(hex_bytes)).decode("ascii")

    architecture = {
        # 1.0 and 2.0, least significant byte first.
        "band_delays": column("000000000000f03f" "0000000000000040"),
        # 0.5 and a subnormal, 2**-1074.
        "band_leakage": column("000000000000e03f" "0100000000000000"),
        # -0.0: only the sign bit, in the last byte.
        "peripheral_leakage": column("0000000000000080"),
    }
    payload = {
        "policy": policy_identity(ConstraintPolicy("known", 3.0, 1.5)),
        "constraints": {"delay_limit": 3.0, "leakage_limit": 1.0},
        "chip_ids": [7], "ways": 1, "bands": 2,
        "regular": architecture, "horizontal": dict(architecture),
    }
    decoded = decode_population(payload)
    for columns in (decoded.regular, decoded.horizontal):
        assert columns.chip_ids == (7,)
        assert columns.band_delays.tolist() == [[[1.0, 2.0]]]
        assert columns.band_leakage.tolist() == [[[0.5, 5e-324]]]
        assert columns.peripheral_leakage.tobytes() == struct.pack("<d", -0.0)
        assert str(columns.peripheral_leakage[0, 0]) == "-0.0"
    assert (decoded.regular.hyapd, decoded.horizontal.hyapd) == (False, True)
    assert decoded.chips().passes.tolist() == [True]
    # And encoding writes these very bytes back.
    assert encode_population(decoded)["regular"] == architecture


def test_decoded_columns_are_native_read_only_float64():
    original = _planted_population(5, 6, 4, 2)
    with np.errstate(all="ignore"):
        decoded = decode_population(_json_cycle(encode_population(original)))
    for columns in (decoded.regular, decoded.horizontal):
        for name in _COLUMNS:
            array = getattr(columns, name)
            assert array.dtype == np.float64 and array.dtype.isnative, name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


def test_big_endian_columns_encode_little_endian():
    """Columns in the other byte order store the same bytes."""
    original = _planted_population(9, 5, 2, 4)

    def swapped(columns: CircuitColumns) -> CircuitColumns:
        arrays = [getattr(columns, name).astype(">f8") for name in _COLUMNS]
        with np.errstate(all="ignore"):
            return CircuitColumns(columns.chip_ids, *arrays,
                                  hyapd=columns.hyapd)

    with np.errstate(all="ignore"):
        big = PopulationResult(
            original.constraints, swapped(original.regular),
            swapped(original.horizontal), original.policy,
        )
    assert big.regular.band_delays.dtype.byteorder == ">"
    assert encode_population(big) == encode_population(original)


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
