"""Tests for benchmark profiles and the synthetic trace generator."""

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.core.errors import ConfigurationError
from repro.uarch.isa import OpClass
from repro.workloads import (
    SPEC2000_ALL,
    SPEC2000_FP,
    SPEC2000_INT,
    TraceGenerator,
    get_profile,
)
from repro.workloads.generator import _CHASE_REGS


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
        trace = list(TraceGenerator(get_profile("gzip")).generate(5000))
        assert len(trace) == 5000

    def test_deterministic(self):
        a = list(TraceGenerator(get_profile("gzip"), seed=5).generate(2000))
        b = list(TraceGenerator(get_profile("gzip"), seed=5).generate(2000))
        assert a == b

    def test_seed_sensitivity(self):
        a = list(TraceGenerator(get_profile("gzip"), seed=5).generate(2000))
        b = list(TraceGenerator(get_profile("gzip"), seed=6).generate(2000))
        assert a != b

    def test_benchmarks_differ(self):
        a = list(TraceGenerator(get_profile("gzip"), seed=5).generate(2000))
        b = list(TraceGenerator(get_profile("mcf"), seed=5).generate(2000))
        assert a != b

    @pytest.mark.parametrize("name", ["gzip", "mcf", "swim", "crafty"])
    def test_mix_matches_profile(self, name):
        profile = get_profile(name)
        trace = list(TraceGenerator(profile).generate(20000))
        loads = sum(1 for i in trace if i.op is OpClass.LOAD)
        stores = sum(1 for i in trace if i.op is OpClass.STORE)
        branches = sum(1 for i in trace if i.op is OpClass.BRANCH)
        assert loads / 20000 == pytest.approx(profile.load_frac, abs=0.02)
        assert stores / 20000 == pytest.approx(profile.store_frac, abs=0.02)
        assert branches / 20000 == pytest.approx(profile.branch_frac, abs=0.02)

    def test_mispredict_rate(self):
        profile = get_profile("twolf")
        trace = list(TraceGenerator(profile).generate(30000))
        branches = [i for i in trace if i.op is OpClass.BRANCH]
        rate = sum(i.mispredicted for i in branches) / len(branches)
        assert rate == pytest.approx(profile.mispredict_rate, abs=0.03)

    def test_fp_suite_uses_fp_units(self):
        trace = list(TraceGenerator(get_profile("swim")).generate(10000))
        fp_ops = sum(
            1 for i in trace if i.op in (OpClass.FALU, OpClass.FMULT)
        )
        int_trace = list(TraceGenerator(get_profile("gzip")).generate(10000))
        fp_int = sum(
            1 for i in int_trace if i.op in (OpClass.FALU, OpClass.FMULT)
        )
        assert fp_ops > 1000
        assert fp_int == 0

    def test_chase_loads_form_chains(self):
        profile = get_profile("mcf")
        trace = list(TraceGenerator(profile).generate(5000))
        chase = [
            i
            for i in trace
            if i.op is OpClass.LOAD and i.dest in _CHASE_REGS
        ]
        assert chase, "mcf must emit chase loads"
        for instr in chase:
            assert instr.srcs == (instr.dest,)  # chain through one register

    def test_addresses_within_regions(self):
        profile = get_profile("vpr")
        for instr in TraceGenerator(profile).generate(5000):
            if instr.address is not None:
                region = instr.address >> 28
                assert region in (0x1, 0x2, 0x3)

    def test_stream_addresses_stride(self):
        profile = get_profile("swim")
        streams = {}
        for instr in TraceGenerator(profile).generate(3000):
            if instr.op is OpClass.LOAD and instr.address is not None:
                if instr.address >> 28 == 0x1:
                    walker = (instr.address >> 24) & 0xF
                    streams.setdefault(walker, []).append(instr.address)
        assert streams
        for addresses in streams.values():
            deltas = {
                b - a for a, b in zip(addresses, addresses[1:]) if b > a
            }
            assert profile.stream_stride in deltas

    def test_pc_stays_in_code_footprint(self):
        profile = get_profile("gcc")
        base = 0x0040_0000
        for instr in TraceGenerator(profile).generate(5000):
            assert base <= instr.pc < base + profile.code_footprint + 4096

    def test_rejects_non_positive_length(self):
        with pytest.raises(ConfigurationError):
            list(TraceGenerator(get_profile("gzip")).generate(0))


@hsettings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from([p.name for p in SPEC2000_ALL]),
    length=st.integers(min_value=1, max_value=500),
)
def test_any_profile_generates_valid_traces(name, length):
    """Property: every generated instruction passes TraceInstruction's own
    validation (construction *is* validation) and carries a plausible pc."""
    for instr in TraceGenerator(get_profile(name)).generate(length):
        assert instr.pc > 0
