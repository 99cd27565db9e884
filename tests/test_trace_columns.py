"""The column trace generator against the per-instruction oracle.

``compile_trace`` fills the seven compiled-trace buffers with NumPy;
``tests/oracles/generator.py`` is the per-instruction generator it
replaced, and ``oracles.compiled.from_instructions`` the packing it
replaced. Every buffer must be byte-equal to the oracle's:

* the battery: all 24 profiles x 50 seeds, at lengths on both sides of
  the 8192-instruction draw block, each compilation also a byte prefix
  of the longest one;
* one named case per byte-level rule a rewrite of the generator can
  break (draw order, the block wrap of source draws, libm ``pow`` for
  random addresses, a branch's own pc, the pending load-to-use
  register), on draws chosen so that the rule decides the bytes;
* the column check: every rule of the instruction record, broken once
  per case, raises :class:`TraceError`.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles.generator
from oracles.compiled import from_instructions
from oracles.generator import TraceGenerator
from repro.core.errors import TraceError
from repro.core.rng import spawn
from repro.uarch.isa import OpClass
from repro.workloads import SPEC2000_ALL, compile_trace, get_profile
from repro.workloads import compiled
from repro.workloads.compiled import OP_CODES, check_columns

_COLUMNS = ("ops", "dests", "src0", "src1", "addresses", "pcs", "mispredicts")
_LENGTHS = (1, 2, 300, 1500, 8191, 8192, 8193, 16385)
_SEEDS = range(50)
_BLOCK = 8192
_LOAD = OP_CODES[OpClass.LOAD]
_STORE = OP_CODES[OpClass.STORE]
_BRANCH = OP_CODES[OpClass.BRANCH]
_IALU = OP_CODES[OpClass.IALU]
_CODE_BASE = 0x0040_0000
_RANDOM_BASE = 0x2000_0000


def oracle(profile, seed: int, length: int):
    return from_instructions(
        TraceGenerator(profile, seed=seed).generate(length),
        profile_name=profile.name,
        seed=seed,
    )


def assert_same_bytes(trace, reference, length=None) -> None:
    """``trace``'s buffers are the first ``length`` entries of
    ``reference``'s, byte for byte."""
    length = trace.length if length is None else length
    assert trace.length == length
    for column in _COLUMNS:
        got = getattr(trace, column).tobytes()
        want = getattr(reference, column)[:length].tobytes()
        assert got == want, f"{column} differs at length {length}"


def as_numpy(trace, column: str) -> np.ndarray:
    return np.array(getattr(trace, column)[: trace.length])


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------
def test_oracle_generation_is_lazy():
    """``generate(n)`` is the first ``n`` instructions of ``generate(m)``,
    so the battery's one oracle run at the longest length is the oracle
    at every shorter length."""
    for name, seed in (("gzip", 0), ("mcf", 3), ("swim", 7)):
        profile = get_profile(name)
        long = oracle(profile, seed, 1500)
        for length in (1, 2, 300):
            assert_same_bytes(oracle(profile, seed, length), long, length)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("name", [p.name for p in SPEC2000_ALL])
def test_columns_match_oracle(name, seed):
    profile = get_profile(name)
    reference = oracle(profile, seed, max(_LENGTHS))
    longest = compile_trace(profile, seed, max(_LENGTHS))
    assert_same_bytes(longest, reference)
    for length in _LENGTHS[:-1]:
        trace = compile_trace(profile, seed, length)
        assert_same_bytes(trace, reference)
        assert_same_bytes(trace, longest)  # the prefix property


# ----------------------------------------------------------------------
# the byte traps
# ----------------------------------------------------------------------
class _ChosenDraws:
    """A generator's random stream with chosen values written over some
    of its draws: ``chosen[(block, name)]`` maps positions to values for
    ``name`` in ``kind``, ``misc``, ``addr`` (the block's three
    ``random`` calls, in order) and ``geo`` (its ``geometric`` call)."""

    _RANDOMS = ("kind", "misc", "addr")

    def __init__(self, rng, chosen) -> None:
        self._rng = rng
        self._chosen = chosen
        self.bit_generator = rng.bit_generator
        self._randoms = 0
        self._geos = 0

    def integers(self, low, high):
        return self._rng.integers(low, high)

    def random(self, size):
        key = (self._randoms // 3, self._RANDOMS[self._randoms % 3])
        self._randoms += 1
        return self._overwrite(self._rng.random(size), key)

    def geometric(self, p, size):
        key = (self._geos, "geo")
        self._geos += 1
        return self._overwrite(self._rng.geometric(p, size), key)

    def _overwrite(self, values, key):
        for position, value in self._chosen.get(key, {}).items():
            if position < values.size:
                values[position] = value
        return values


def chosen_traces(monkeypatch, profile, seed, length, chosen):
    """Production's and the oracle's trace over the same chosen draws."""
    def chosen_spawn(parent_seed, label):
        return _ChosenDraws(spawn(parent_seed, label), chosen)

    monkeypatch.setattr(compiled, "spawn", chosen_spawn)
    monkeypatch.setattr(oracles.generator, "spawn", chosen_spawn)
    trace = compile_trace(profile, seed, length)
    reference = oracle(profile, seed, length)
    assert_same_bytes(trace, reference)
    return trace


def test_trap_draw_order():
    """Four stream offsets, then per block u_kind, u_misc, u_addr, geo:
    instruction 8192 is classified by the second block's first u_kind,
    which is drawn after the first block's geo."""
    profile = get_profile("swim")
    seed = 7
    trace = compile_trace(profile, seed, _BLOCK + 1)
    assert_same_bytes(trace, oracle(profile, seed, _BLOCK + 1))

    rng = spawn(seed, f"trace-{profile.name}")
    region = max(profile.stream_buffer // 4, profile.stream_stride)
    steps = max(region // profile.stream_stride, 1)
    starts = [
        int(rng.integers(0, steps)) * profile.stream_stride
        for _ in range(4)
    ]
    kinds = []
    for _ in range(2):
        kinds.append(rng.random(_BLOCK))
        rng.random(_BLOCK)  # u_misc
        rng.random(_BLOCK)  # u_addr
        rng.geometric(profile.dep_prob, _BLOCK)
    kind = np.concatenate(kinds)[: _BLOCK + 1]
    ops = as_numpy(trace, "ops")
    assert np.array_equal(ops == _LOAD, kind < profile.load_frac)
    assert np.array_equal(
        ops == _STORE,
        (kind >= profile.load_frac)
        & (kind < profile.load_frac + profile.store_frac),
    )
    # The first access of each stream walker is at its drawn offset.
    addresses = as_numpy(trace, "addresses")
    walks = addresses[addresses >> 28 == 0x1][:4]
    assert walks.tolist() == [
        0x1000_0000 + walker * 0x0100_0000 + starts[walker]
        for walker in range(4)
    ]


def test_trap_block_wrap(monkeypatch):
    """Source slot i at block position j reads u_misc[(j+i+1) % 8192]
    and geo[(j+i) % 8192] of its own block. At position 8191 a load
    leaves its register pending, and the compute op after it reads its
    own block's u_misc[0] (0.5: take the pending register) and geo[0]
    (3), where the next block's draws (0.95 and 5) would decide
    otherwise."""
    profile = get_profile("gzip")  # compute >= 0.51, random load misc >= 0.4
    last = _BLOCK - 1
    chosen = {
        (0, "kind"): {**{j: 0.9 for j in range(last - 7, last)},
                      last - 1: 0.1, last: 0.9},
        (0, "misc"): {last - 1: 0.99, 0: 0.5, 1: 0.95},
        (0, "geo"): {0: 3, last: 2},
        (1, "misc"): {0: 0.95, 1: 0.5},
        (1, "geo"): {0: 5},
    }
    trace = chosen_traces(monkeypatch, profile, 11, _BLOCK + 1, chosen)
    ops = as_numpy(trace, "ops")
    dests = as_numpy(trace, "dests")
    assert ops[last - 1] == _LOAD and ops[last] == _IALU
    assert trace.src0[last] == dests[last - 1]  # the pending load
    # The third most recent producer, not the fifth.
    assert trace.src1[last] == dests[last - 3] != dests[last - 5]


def test_trap_random_addresses_use_libm_pow(monkeypatch):
    """Random addresses take ``draw ** locality`` from libm, as Python's
    ``**`` does. The chosen draws sit within a few ulps of where the
    reuse unit changes, where another ``pow`` can round to the other
    side."""
    profile = get_profile("mcf")  # load < 0.34, random load misc >= 0.45
    units = max(profile.working_set // 8, 1)
    draws = []
    for unit in range(1, 41):
        below = above = (unit / units) ** (1 / profile.locality)
        draws.append(below)
        for _ in range(4):
            below = float(np.nextafter(below, 0.0))
            above = float(np.nextafter(above, 1.0))
            draws += [below, above]
    count = len(draws)
    chosen = {
        (0, "kind"): {j: 0.1 for j in range(count)},
        (0, "misc"): {j: 0.99 for j in range(count)},
        (0, "addr"): dict(enumerate(draws)),
    }
    trace = chosen_traces(monkeypatch, profile, 5, count, chosen)
    expected = [
        _RANDOM_BASE + int(units * draw ** profile.locality) % units * 8
        for draw in draws
    ]
    assert as_numpy(trace, "addresses").tolist() == expected


def test_trap_branch_pc(monkeypatch):
    """A branch's own pc uses the loop position from before its
    back-edge or migration; the restart applies from the next
    instruction."""
    profile = get_profile("gcc")  # branch kind in [0.39, 0.55)
    chosen = {
        (0, "kind"): {**{j: 0.9 for j in range(30)}, 10: 0.45, 20: 0.45},
        (0, "addr"): {10: 0.2, 20: 0.01},  # taken back-edge, migration
    }
    trace = chosen_traces(monkeypatch, profile, 2, 30, chosen)
    pcs = as_numpy(trace, "pcs")
    assert trace.ops[10] == trace.ops[20] == _BRANCH
    assert pcs[9] == _CODE_BASE + 40 and pcs[10] == _CODE_BASE + 44
    assert pcs[11] == _CODE_BASE + 4
    assert pcs[20] == _CODE_BASE + 40
    footprint = profile.code_footprint
    moved = _CODE_BASE + (int(0.01 / 0.03 * footprint) & ~1023) % footprint
    assert moved != _CODE_BASE
    assert pcs[21] == moved + 4


def test_trap_load_to_use(monkeypatch):
    """Every load, chase loads included, leaves its register pending
    after its own source pick; a chase load picks no source (it reads
    its own chase register); the next load's own slot may take the
    pending register."""
    profile = get_profile("mcf")  # chase misc in [0.05, 0.45)
    chosen = {
        (0, "kind"): {5: 0.1, 6: 0.1, 7: 0.9, 8: 0.9,
                      12: 0.1, 13: 0.1, 14: 0.9},
        (0, "misc"): {5: 0.99, 6: 0.2, 8: 0.1, 12: 0.99, 13: 0.99, 14: 0.1},
    }
    trace = chosen_traces(monkeypatch, profile, 3, 20, chosen)
    dests = as_numpy(trace, "dests")
    ops = as_numpy(trace, "ops")
    assert (ops[[5, 6, 12, 13]] == _LOAD).all()
    assert dests[6] >= 28  # a chase register
    assert trace.src0[6] == dests[6] and trace.src1[6] == -1
    assert trace.src0[7] == dests[6]  # the chase load was pending
    assert trace.src0[13] == dests[12]  # the next load's own slot


# ----------------------------------------------------------------------
# the column check
# ----------------------------------------------------------------------
def _valid_columns():
    """ialu r1 <- r0; load r2 <- [0x100]; store r1, r2 -> [0x200];
    mispredicted branch on r1."""
    return {
        "ops": np.array([_IALU, _LOAD, _STORE, _BRANCH]),
        "dests": np.array([1, 2, -1, -1]),
        "src0": np.array([0, -1, 1, 1]),
        "src1": np.array([-1, -1, 2, -1]),
        "addresses": np.array([-1, 0x100, 0x200, -1]),
        "mispredicts": np.array([0, 0, 0, 1]),
    }


def test_column_check_accepts_valid_columns():
    check_columns(**_valid_columns())


@pytest.mark.parametrize(
    "column,row,value",
    [
        pytest.param("dests", 0, 32, id="dest-32"),
        pytest.param("src0", 0, 40, id="source-40"),
        pytest.param("src1", 2, 40, id="second-source-40"),
        pytest.param("dests", 2, 3, id="store-with-dest"),
        pytest.param("addresses", 0, 0x100, id="alu-with-address"),
        pytest.param("addresses", 1, -1, id="load-without-address"),
        pytest.param("mispredicts", 0, 1, id="mispredicted-non-branch"),
    ],
)
def test_column_check_refuses(column, row, value):
    columns = _valid_columns()
    columns[column][row] = value
    with pytest.raises(TraceError, match=f"instruction {row}:"):
        check_columns(**columns)
