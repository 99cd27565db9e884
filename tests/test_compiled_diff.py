"""Differential tests: compiled traces and the in-place cache vs the oracles.

The production cache keeps per-set tag, dirty and recency lists and the
pipeline replays compiled traces; both must be *bit-identical* to the
reference implementations in ``tests/oracles``. These tests sweep 150
randomized (profile, geometry, way-configuration) LRU configurations
through the access/fill loop of both caches and assert equality of every
observable: each access's hit way and each fill result,
hit/miss/eviction/per-way counters and resident line state.
A pipeline subset compares the full :class:`SimResult` of the kernel on a
compiled trace against the oracle engine on the generated instruction
stream, including cycle counts.

The way configurations cover every scheme overlay the yield experiments
produce: healthy, VACA (5-cycle ways), YAPD (disabled ways), H-YAPD
(disabled horizontal band), and Hybrid (disables + slow ways combined).
"""

from __future__ import annotations

import random

import pytest

from oracles import simulate as oracle_simulate
from oracles.compiled import content_key, instructions
from oracles.generator import TraceGenerator
from oracles.setassoc import SetAssociativeCache as OracleCache
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache, WayConfig
from repro.core.errors import ConfigurationError
from repro.uarch import Simulator
from repro.uarch.isa import OpClass
from repro.workloads import (
    SPEC2000_ALL,
    clear_trace_cache,
    compile_trace,
    get_compiled_trace,
    get_profile,
    trace_cache_info,
)

_PROFILE_NAMES = tuple(p.name for p in SPEC2000_ALL)
_BUDGET = "repro.workloads.compiled.TRACE_CACHE_BUDGET"

#: Small geometries keep 150 replays fast while still exercising several
#: set counts, associativities and block sizes (the paper's L1D last).
_GEOMETRIES = (
    CacheGeometry(1024, 2, 32),
    CacheGeometry(2048, 4, 32),
    CacheGeometry(2048, 4, 64),
    CacheGeometry(4096, 8, 32),
    CacheGeometry(16 * 1024, 4, 32),
)

_OVERLAYS = ("healthy", "vaca", "yapd", "hyapd", "hybrid")


def _overlay_config(rng: random.Random, ways: int, overlay: str) -> WayConfig:
    """A scheme-shaped way configuration with ``ways`` ways."""
    if overlay == "healthy":
        return WayConfig.uniform(ways)
    if overlay == "vaca":
        latencies = tuple(rng.choice((4, 5)) for _ in range(ways))
        return WayConfig(latencies=latencies)
    if overlay == "hyapd":
        return WayConfig(
            latencies=tuple(4 for _ in range(ways)),
            disabled_band=rng.randrange(4),
            num_bands=4,
        )
    # yapd / hybrid: disable a strict subset of ways; hybrid also slows
    # some of the surviving ways to 5 cycles.
    disabled = rng.sample(range(ways), rng.randrange(1, ways))
    latencies = []
    for way in range(ways):
        if way in disabled:
            latencies.append(None)
        elif overlay == "hybrid":
            latencies.append(rng.choice((4, 5)))
        else:
            latencies.append(4)
    return WayConfig(latencies=tuple(latencies))


def _make_cases(count: int):
    rng = random.Random(20060805)
    cases = []
    for index in range(count):
        profile = rng.choice(_PROFILE_NAMES)
        geometry = rng.choice(_GEOMETRIES)
        overlay = rng.choice(_OVERLAYS)
        # Each case once drew one of three replacement policies here;
        # drawing the slot keeps every case's configuration and id.
        rng.randrange(3)
        seed = rng.randrange(1, 50)
        config = _overlay_config(rng, geometry.associativity, overlay)
        cases.append(
            pytest.param(
                profile, geometry, config, seed,
                id=f"{index:03d}-{profile}-{overlay}-lru",
            )
        )
    return cases


_CASES = _make_cases(150)


_RESULT_FIELDS = (
    "hit", "way", "latency", "set_index", "evicted_block", "evicted_dirty",
)


def _replay(cache: SetAssociativeCache, trace):
    """access_way(); fill() on miss — the hit way (-1 on a miss) of every
    access and the fields of every fill, in order."""
    results = []
    for instr in instructions(trace):
        if instr.address is None:
            continue
        write = instr.op is OpClass.STORE
        way = cache.access_way(instr.address, write=write)
        results.append(way)
        if way < 0:
            fill = cache.fill(instr.address, dirty=write)
            results.append(tuple(getattr(fill, f) for f in _RESULT_FIELDS))
    return results


def _oracle_replay(cache: OracleCache, trace):
    """:func:`_replay` through the oracle cache's ``access``."""
    results = []
    for instr in instructions(trace):
        if instr.address is None:
            continue
        write = instr.op is OpClass.STORE
        result = cache.access(instr.address, write=write)
        results.append(result.way if result.hit else -1)
        if not result.hit:
            fill = cache.fill(instr.address, dirty=write)
            results.append(tuple(getattr(fill, f) for f in _RESULT_FIELDS))
    return results


def _oracle_state(cache: OracleCache):
    lines = []
    for set_index in range(cache.geometry.num_sets):
        for way in range(cache.geometry.associativity):
            line = cache._lines[set_index][way]
            if line is not None:
                lines.append((set_index, way, line.tag, line.dirty))
    return (
        cache.hits,
        cache.misses,
        cache.evictions,
        tuple(cache.way_hits),
        tuple(lines),
    )


def _cache_state(cache: SetAssociativeCache):
    lines = []
    for set_index in range(cache.geometry.num_sets):
        for way in range(cache.geometry.associativity):
            tag = cache._tags[set_index][way]
            if tag is not None:
                lines.append(
                    (set_index, way, tag, cache._dirty[set_index][way])
                )
    return (
        cache.hits,
        cache.misses,
        cache.evictions,
        tuple(cache.way_hits),
        tuple(lines),
    )


@pytest.mark.parametrize("profile,geometry,config,seed", _CASES)
def test_run_compiled_matches_reference(profile, geometry, config, seed):
    """The in-place cache's access/fill loop against the oracle cache's.

    (Named for the batched replay this battery used to check; the
    per-access loop is now the only replay.)
    """
    trace = get_compiled_trace(get_profile(profile), seed, 600)
    reference = OracleCache(geometry, config=config)
    cache = SetAssociativeCache(geometry, config=config)
    assert _replay(cache, trace) == _oracle_replay(reference, trace)
    assert _cache_state(cache) == _oracle_state(reference)


# ----------------------------------------------------------------------
# pipeline: the kernel must reproduce the oracle's cycle counts exactly
# ----------------------------------------------------------------------
def _make_pipeline_cases(count: int):
    rng = random.Random(777)
    cases = []
    for index in range(count):
        profile = rng.choice(_PROFILE_NAMES)
        overlay = rng.choice(_OVERLAYS)
        seed = rng.randrange(1, 20)
        uniform = None
        if overlay == "healthy" and rng.random() < 0.5:
            uniform = 5  # naive binning (Section 4.5)
        config = _overlay_config(rng, 4, overlay)
        cases.append(
            pytest.param(
                profile, config, uniform, seed,
                id=f"pipe{index:02d}-{profile}-{overlay}"
                + ("-uniform" if uniform else ""),
            )
        )
    return cases


@pytest.mark.parametrize(
    "profile,config,uniform,seed", _make_pipeline_cases(30)
)
def test_pipeline_compiled_matches_reference(profile, config, uniform, seed):
    prof = get_profile(profile)
    length, warmup = 700, 100
    compiled = get_compiled_trace(prof, seed, length)
    reference = oracle_simulate(
        TraceGenerator(prof, seed=seed).generate(length), warmup,
        l1d_config=config, uniform_load_latency=uniform,
    )
    fast = Simulator(
        l1d_config=config, uniform_load_latency=uniform
    ).run(compiled, warmup=warmup)
    # The repr covers instructions, cycles, replays, LBB stalls, slow-way
    # hits, mispredicts, loads, stores and the full hierarchy counter
    # snapshot, float miss rates included.
    assert repr(fast) == repr(reference)


# ----------------------------------------------------------------------
# compiled-trace cache semantics
# ----------------------------------------------------------------------
class TestCompiledTraceCache:
    def test_prefix_is_bit_identical_to_direct_compilation(self):
        profile = get_profile("vpr")
        long = compile_trace(profile, 11, 900)
        short = compile_trace(profile, 11, 250)
        # Content addresses prove the generator's prefix property: the
        # first 250 packed instructions of the long compilation are the
        # 250-instruction compilation.
        assert content_key(long.prefix(250)) == content_key(short)
        assert list(instructions(long.prefix(250))) == list(
            instructions(short)
        )

    def test_cache_serves_prefixes_and_counts_hits(self):
        profile = get_profile("gap")
        before = trace_cache_info()
        first = get_compiled_trace(profile, 23, 500)
        again = get_compiled_trace(profile, 23, 200)
        after = trace_cache_info()
        assert again.ops is first.ops  # shared buffers, no regeneration
        assert again.length == 200
        assert after["hits"] >= before["hits"] + 1
        assert after["misses"] >= before["misses"] + 1

    def test_longer_request_recompiles_and_replaces(self):
        profile = get_profile("lucas")
        short = get_compiled_trace(profile, 31, 100)
        long = get_compiled_trace(profile, 31, 400)
        assert len(long.ops) >= 400
        # The overlap is bit-identical (prefix property).
        assert content_key(long.prefix(100)) == content_key(short)

    def test_cache_evicts_least_recently_used_within_budget(
        self, monkeypatch
    ):
        profile = get_profile("twolf")
        size = compile_trace(profile, 0, 1000).nbytes
        monkeypatch.setattr(_BUDGET, 3 * size)
        clear_trace_cache()
        try:
            kept = get_compiled_trace(profile, 0, 1000)
            get_compiled_trace(profile, 1, 1000)
            get_compiled_trace(profile, 2, 1000)
            get_compiled_trace(profile, 0, 400)  # refreshes seed 0
            get_compiled_trace(profile, 3, 1000)  # past the budget
            info = trace_cache_info()
            assert info["bytes"] <= 3 * size
            assert info["entries"] == 3
            assert info["evictions"] == 1
            # The refreshed entry stayed; the least recently used went.
            assert get_compiled_trace(profile, 0, 1000).ops is kept.ops
            misses = trace_cache_info()["misses"]
            again = get_compiled_trace(profile, 1, 1000)
            assert trace_cache_info()["misses"] == misses + 1
            assert content_key(again) == content_key(
                compile_trace(profile, 1, 1000)
            )
            assert trace_cache_info()["bytes"] <= 3 * size
        finally:
            clear_trace_cache()

    def test_trace_larger_than_the_budget_is_not_cached(self, monkeypatch):
        profile = get_profile("art")
        monkeypatch.setattr(_BUDGET, 1000)
        clear_trace_cache()
        try:
            trace = get_compiled_trace(profile, 4, 100)
            assert trace.nbytes > 1000
            info = trace_cache_info()
            assert (info["entries"], info["bytes"]) == (0, 0)
            assert info["evictions"] == 0
        finally:
            clear_trace_cache()


# ----------------------------------------------------------------------
# zero-way guard (H-YAPD region masks)
# ----------------------------------------------------------------------
class TestZeroWayGuard:
    def test_band_disable_cannot_mask_every_way(self):
        # 1 way, 4 bands: the disabled band removes the only way of one
        # address group — rejected at construction, not mid-simulation.
        with pytest.raises(ConfigurationError, match="zero usable ways"):
            SetAssociativeCache(
                CacheGeometry(4096, 1, 32),
                config=WayConfig(latencies=(4,), disabled_band=0),
            )


# ----------------------------------------------------------------------
# flamegraph attribution: compile vs replay spans
# ----------------------------------------------------------------------
def test_compile_and_replay_spans_are_traced(tmp_path, monkeypatch):
    from repro.cli import main
    from repro.obs import configure_tracing, disable_tracing, load_spans_counted
    from repro.workloads import clear_trace_cache

    trace_file = tmp_path / "t.jsonl"
    configure_tracing(trace_file)
    try:
        clear_trace_cache()  # force a ctrace.compile span
        profile = get_profile("gzip")
        compiled = get_compiled_trace(profile, 3, 600)
        Simulator().run(compiled, warmup=100)
    finally:
        disable_tracing()
    names = {record["name"] for record in load_spans_counted(trace_file)[0]}
    assert "ctrace.compile" in names
    assert "ctrace.replay" in names
    # And the flamegraph renders both, so time is attributed to
    # compile vs replay when reading `repro trace flamegraph` output.
    out = tmp_path / "flame.html"
    assert main(
        ["trace", "flamegraph", str(trace_file), "--out", str(out)]
    ) == 0
    html = out.read_text(encoding="utf-8")
    assert "ctrace.compile" in html
    assert "ctrace.replay" in html
