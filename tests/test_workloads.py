"""Tests for benchmark profiles and the traces generated from them.

The trace checks read the production columns (``compile_trace``); the
byte-for-byte comparison with the per-instruction oracle generator is
``test_trace_columns.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from oracles.compiled import instructions
from repro.core.errors import ConfigurationError
from repro.uarch.isa import OpClass
from repro.workloads import (
    SPEC2000_ALL,
    SPEC2000_FP,
    SPEC2000_INT,
    compile_trace,
    get_compiled_trace,
    get_profile,
)
from repro.workloads.compiled import OP_CODES, _CHASE_REGS

_COLUMNS = ("ops", "dests", "src0", "src1", "addresses", "pcs", "mispredicts")
_FP_CODES = (OP_CODES[OpClass.FALU], OP_CODES[OpClass.FMULT])


def columns(name, length, seed=2006):
    """The trace's columns as NumPy arrays, by column name."""
    trace = compile_trace(get_profile(name), seed, length)
    return {
        column: np.array(getattr(trace, column)) for column in _COLUMNS
    }


def same_trace(a, b) -> bool:
    return all(np.array_equal(a[column], b[column]) for column in _COLUMNS)


class TestSuiteComposition:
    def test_paper_suite_sizes(self):
        """Paper Section 5.2: 11 integer and 13 floating-point codes."""
        assert len(SPEC2000_INT) == 11
        assert len(SPEC2000_FP) == 13
        assert len(SPEC2000_ALL) == 24

    def test_names_unique(self):
        names = [p.name for p in SPEC2000_ALL]
        assert len(set(names)) == len(names)

    def test_suite_labels(self):
        assert all(p.suite == "int" for p in SPEC2000_INT)
        assert all(p.suite == "fp" for p in SPEC2000_FP)

    def test_lookup(self):
        assert get_profile("mcf").name == "mcf"
        with pytest.raises(ConfigurationError):
            get_profile("doom")

    def test_known_characters(self):
        """The canonical workload characters survive calibration."""
        mcf = get_profile("mcf")
        crafty = get_profile("crafty")
        swim = get_profile("swim")
        assert mcf.chase_frac > 0.3
        assert mcf.chase_region > 1_000_000
        assert swim.stream_frac > 0.7
        assert swim.stream_buffer > 500_000
        assert crafty.working_set < 16 * 1024

    def test_mix_fractions_valid(self):
        for profile in SPEC2000_ALL:
            compute = (
                1.0 - profile.load_frac - profile.store_frac
                - profile.branch_frac
            )
            assert compute > 0.1
            assert 0 <= profile.stream_frac + profile.chase_frac <= 1

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            get_profile("gzip").__class__(
                name="x",
                suite="int",
                load_frac=0.5,
                store_frac=0.3,
                branch_frac=0.2,
                fp_frac=0.0,
                mult_frac=0.0,
                mispredict_rate=0.0,
                dep_prob=0.5,
                working_set=1024,
                locality=1.0,
                stream_frac=0.0,
                chase_frac=0.0,
            )


class TestGeneratedTraces:
    def test_length(self):
        trace = compile_trace(get_profile("gzip"), 2006, 5000)
        assert trace.length == 5000
        assert {len(getattr(trace, column)) for column in _COLUMNS} == {5000}

    def test_deterministic(self):
        assert same_trace(columns("gzip", 2000, 5), columns("gzip", 2000, 5))

    def test_seed_sensitivity(self):
        assert not same_trace(
            columns("gzip", 2000, 5), columns("gzip", 2000, 6)
        )

    def test_benchmarks_differ(self):
        assert not same_trace(
            columns("gzip", 2000, 5), columns("mcf", 2000, 5)
        )

    @pytest.mark.parametrize("name", ["gzip", "mcf", "swim", "crafty"])
    def test_mix_matches_profile(self, name):
        profile = get_profile(name)
        ops = columns(name, 20000)["ops"]
        loads = np.count_nonzero(ops == OP_CODES[OpClass.LOAD])
        stores = np.count_nonzero(ops == OP_CODES[OpClass.STORE])
        branches = np.count_nonzero(ops == OP_CODES[OpClass.BRANCH])
        assert loads / 20000 == pytest.approx(profile.load_frac, abs=0.02)
        assert stores / 20000 == pytest.approx(profile.store_frac, abs=0.02)
        assert branches / 20000 == pytest.approx(profile.branch_frac, abs=0.02)

    def test_mispredict_rate(self):
        profile = get_profile("twolf")
        trace = columns("twolf", 30000)
        branches = trace["ops"] == OP_CODES[OpClass.BRANCH]
        rate = trace["mispredicts"][branches].mean()
        assert rate == pytest.approx(profile.mispredict_rate, abs=0.03)
        assert not trace["mispredicts"][~branches].any()

    def test_fp_suite_uses_fp_units(self):
        fp_ops = np.isin(columns("swim", 10000)["ops"], _FP_CODES).sum()
        fp_int = np.isin(columns("gzip", 10000)["ops"], _FP_CODES).sum()
        assert fp_ops > 1000
        assert fp_int == 0

    def test_chase_loads_form_chains(self):
        trace = columns("mcf", 5000)
        chase = (trace["ops"] == OP_CODES[OpClass.LOAD]) & np.isin(
            trace["dests"], _CHASE_REGS
        )
        assert chase.any(), "mcf must emit chase loads"
        # chain through one register
        assert np.array_equal(trace["src0"][chase], trace["dests"][chase])
        assert (trace["src1"][chase] == -1).all()

    def test_addresses_within_regions(self):
        addresses = columns("vpr", 5000)["addresses"]
        regions = addresses[addresses >= 0] >> 28
        assert regions.size
        assert set(regions.tolist()) <= {0x1, 0x2, 0x3}

    def test_stream_addresses_stride(self):
        profile = get_profile("swim")
        trace = columns("swim", 3000)
        loads = trace["addresses"][trace["ops"] == OP_CODES[OpClass.LOAD]]
        streams = {}
        for address in loads[loads >> 28 == 0x1].tolist():
            walker = (address >> 24) & 0xF
            streams.setdefault(walker, []).append(address)
        assert streams
        for addresses in streams.values():
            deltas = {
                b - a for a, b in zip(addresses, addresses[1:]) if b > a
            }
            assert profile.stream_stride in deltas

    def test_pc_stays_in_code_footprint(self):
        profile = get_profile("gcc")
        base = 0x0040_0000
        pcs = columns("gcc", 5000)["pcs"]
        assert (pcs >= base).all()
        assert (pcs < base + profile.code_footprint + 4096).all()

    def test_rejects_non_positive_length(self):
        with pytest.raises(ConfigurationError):
            compile_trace(get_profile("gzip"), 2006, 0)
        with pytest.raises(ConfigurationError):
            get_compiled_trace(get_profile("gzip"), 2006, 0)


@hsettings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from([p.name for p in SPEC2000_ALL]),
    length=st.integers(min_value=1, max_value=500),
)
def test_any_profile_generates_valid_traces(name, length):
    """Property: every generated row decodes into an instruction that
    passes the oracle record's own validation (construction *is*
    validation) and carries a plausible pc."""
    trace = compile_trace(get_profile(name), 2006, length)
    for instr in instructions(trace):
        assert instr.pc > 0
