"""Differential tests: the fused simulation kernel vs the per-stage oracle.

Production simulates through one kernel: ``PipelineEngine.run`` is a
single loop over local variables, and the caches keep per-set tag, dirty
and recency lists. ``tests/oracles`` holds the per-stage engine and the
dataclass-per-access hierarchy it replaced. Every statistic the kernel
reports must equal the oracle's exactly, so these tests compare the
``repr`` of the whole :class:`SimResult`, float miss rates included:

* 150 seeded random configurations over all 24 profiles, with warmup 0,
  mid-trace and at least the trace length (where both must raise the
  same :class:`SimulationError`), every scheme overlay (healthy, VACA
  4/5/6, YAPD, Hybrid, H-YAPD bands, uniform 5/6 binning with the raised
  predicted latency), ``lbb_slack`` 0/1/2 and fetch/issue widths 2/4/8;
* the 11 L1D configurations of the paper's performance artefacts on
  every profile at a short window, and on a few profiles at the
  benchmark's paper-cold window (500 warmup + 1,000 measured);
* prefix views of a longer compiled trace (how ``get_compiled_trace``
  serves a shorter request) at lengths on either side of the powers of
  two where the kernel's packed ``time << bits | seq`` heap keys gain a
  bit, against a fresh compile of that length and the oracle;
* a wiring test: ``Simulator.run`` goes through ``PipelineEngine.run``
  and calls ``MemoryHierarchy.data_access`` once per load and store and
  ``instruction_fetch`` once per fetch-block change, warmup included.
"""

from __future__ import annotations

import random

import pytest

from oracles import simulate as oracle_simulate
from oracles.compiled import from_instructions, instructions
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.setassoc import WayConfig
from repro.core.errors import SimulationError
from repro.experiments.table6 import CONFIG_ORDER, config_way_cycles
from repro.uarch import PAPER_CORE, Simulator
from repro.uarch.isa import OpClass, MEMORY_OPS
from repro.uarch.pipeline import PipelineEngine
from repro.workloads import SPEC2000_ALL, get_compiled_trace, get_profile
from repro.workloads.compiled import compile_trace

_PROFILE_NAMES = tuple(p.name for p in SPEC2000_ALL)

_OVERLAYS = ("healthy", "vaca", "yapd", "hybrid", "hyapd", "uniform")

_WIDTHS = (2, 4, 8)


def _overlay(rng: random.Random, overlay: str):
    """(L1D way configuration, uniform binning latency) of one overlay."""
    if overlay == "healthy":
        return None, None
    if overlay == "uniform":
        return None, rng.choice((5, 6))
    if overlay == "vaca":
        return WayConfig(tuple(rng.choice((4, 5, 6)) for _ in range(4))), None
    if overlay == "hyapd":
        return WayConfig(
            latencies=tuple(rng.choice((4, 5)) for _ in range(4)),
            disabled_band=rng.randrange(4),
        ), None
    # yapd / hybrid: disable a strict subset of the ways; hybrid also
    # slows some of the survivors.
    disabled = set(rng.sample(range(4), rng.randrange(1, 4)))
    slow = (4, 5, 6) if overlay == "hybrid" else (4,)
    return WayConfig(tuple(
        None if way in disabled else rng.choice(slow) for way in range(4)
    )), None


def _make_cases(count: int):
    rng = random.Random(20061209)
    cases = []
    for index in range(count):
        profile = _PROFILE_NAMES[index % len(_PROFILE_NAMES)]
        overlay = _OVERLAYS[index % len(_OVERLAYS)]
        config, uniform = _overlay(rng, overlay)
        length = rng.randrange(150, 900)
        # Mostly mid-trace; one case in five commits nothing after warmup.
        warmup = rng.choice((
            0, 0, 0,
            *(rng.randrange(1, length) for _ in range(5)),
            length,
            length + rng.randrange(1, 50),
        ))
        core = PAPER_CORE.replace(
            fetch_width=rng.choice(_WIDTHS),
            issue_width=rng.choice(_WIDTHS),
            commit_width=rng.choice(_WIDTHS),
            lbb_slack=rng.choice((0, 1, 2)),
            rob_size=rng.choice((32, 256)),
            iq_size=rng.choice((16, 128)),
        )
        if uniform is not None:
            core = core.replace(predicted_load_latency=uniform)
        cases.append(pytest.param(
            profile, rng.randrange(1, 60), length, warmup, core, config,
            uniform, rng.choice(("compiled", "list", "iterator")),
            id=f"{index:03d}-{profile}-{overlay}-w{warmup}of{length}",
        ))
    return cases


def _outcome(run):
    """The run's SimResult repr, or the SimulationError it raised."""
    try:
        return repr(run())
    except SimulationError as exc:
        return f"SimulationError: {exc}"


@pytest.mark.parametrize(
    "profile,seed,length,warmup,core,config,uniform,feed", _make_cases(150)
)
def test_kernel_matches_oracle(
    profile, seed, length, warmup, core, config, uniform, feed
):
    trace = get_compiled_trace(get_profile(profile), seed, length)
    # Instruction lists and iterators reach the kernel packed by the
    # oracle's from_instructions, as hand-written traces do.
    if feed == "list":
        kernel_input = from_instructions(list(instructions(trace)))
    elif feed == "iterator":
        kernel_input = from_instructions(instructions(trace))
    else:
        kernel_input = trace
    simulator = Simulator(
        core=core, l1d_config=config, uniform_load_latency=uniform
    )
    kernel = _outcome(lambda: simulator.run(kernel_input, warmup=warmup))
    oracle = _outcome(lambda: oracle_simulate(
        instructions(trace), warmup, core, config, uniform
    ))
    assert kernel == oracle
    if warmup >= length:
        assert kernel.startswith("SimulationError: trace too short")


def _paper_variants():
    """(label, L1D way cycles, uniform binning latency) of every L1D
    configuration the performance artefacts run."""
    configs = {
        config_way_cycles(config, scheme)
        for config in CONFIG_ORDER
        for scheme in ("YAPD", "VACA", "Hybrid")
    }
    configs.discard(None)
    variants = [("baseline", None, None)]
    variants += [
        ("-".join(str(c) for c in cycles), cycles, None)
        for cycles in sorted(configs, key=str)
    ]
    variants += [(f"uniform{u}", None, u) for u in (5, 6)]
    assert len(variants) == 11
    return variants


def _paper_cases(profiles):
    return [
        pytest.param(profile, cycles, uniform, id=f"{profile}-{label}")
        for profile in profiles
        for label, cycles, uniform in _paper_variants()
    ]


def _kernel_and_oracle(trace, warmup, cycles, uniform):
    """The kernel's and the oracle's SimResult reprs for one run."""
    core = PAPER_CORE
    if uniform is not None:
        core = core.replace(predicted_load_latency=uniform)
    config = None if cycles is None else WayConfig(latencies=cycles)
    kernel = Simulator(
        core=core, l1d_config=config, uniform_load_latency=uniform
    ).run(trace, warmup=warmup)
    oracle = oracle_simulate(
        instructions(trace), warmup, core, config, uniform
    )
    return repr(kernel), repr(oracle)


@pytest.mark.parametrize(
    "profile,cycles,uniform", _paper_cases(_PROFILE_NAMES)
)
def test_paper_configurations_match_oracle(profile, cycles, uniform):
    trace = get_compiled_trace(get_profile(profile), 2006, 450)
    kernel, oracle = _kernel_and_oracle(trace, 150, cycles, uniform)
    assert kernel == oracle


@pytest.mark.parametrize(
    "profile,cycles,uniform", _paper_cases(("ammp", "mcf", "gzip"))
)
def test_paper_cold_window_matches_oracle(profile, cycles, uniform):
    """The benchmark's paper-cold window: 500 warmup + 1,000 measured."""
    trace = compile_trace(get_profile(profile), 2006, 1500)
    kernel, oracle = _kernel_and_oracle(trace, 500, cycles, uniform)
    assert kernel == oracle


@pytest.mark.parametrize("length", (255, 256, 257, 1023, 1024, 1025))
@pytest.mark.parametrize("profile", ("equake", "twolf"))
def test_prefix_view_matches_fresh_compile_and_oracle(profile, length):
    longer = compile_trace(get_profile(profile), 31, 1100)
    view = longer.prefix(length)
    assert view.length == length and len(view.ops) == 1100
    fresh = compile_trace(get_profile(profile), 31, length)
    cycles = (4, 5, 5, 6)  # VACA: slow-way hits, bypass holds and replays
    warmup = length // 3
    kernel, oracle = _kernel_and_oracle(view, warmup, cycles, None)
    assert kernel == oracle
    simulator = Simulator(l1d_config=WayConfig(latencies=cycles))
    assert kernel == repr(simulator.run(fresh, warmup=warmup))


def test_simulator_runs_through_the_instrumented_entry_points(monkeypatch):
    """The benchmark's tracer wraps these three names to attribute time."""
    calls = {"run": 0, "data_access": 0, "instruction_fetch": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        PipelineEngine, "run", counting("run", PipelineEngine.run)
    )
    for name in ("data_access", "instruction_fetch"):
        monkeypatch.setattr(
            MemoryHierarchy, name,
            counting(name, getattr(MemoryHierarchy, name)),
        )
    trace = get_compiled_trace(get_profile("mcf"), 5, 800)
    result = Simulator().run(trace, warmup=300)

    codes = list(OpClass)
    ops = trace.ops[: trace.length]
    memory_ops = sum(1 for code in ops if codes[code] in MEMORY_OPS)
    block_bytes = MemoryHierarchy().config.l1i_geometry.block_bytes
    blocks = [pc // block_bytes for pc in trace.pcs[: trace.length]]
    block_changes = 1 + sum(1 for a, b in zip(blocks, blocks[1:]) if a != b)
    assert calls["run"] == 1
    assert calls["data_access"] == memory_ops
    assert result.loads + result.stores < memory_ops  # warmup excluded there
    assert calls["instruction_fetch"] == block_changes
