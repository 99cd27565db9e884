"""Per-benchmark workload profiles (SPEC2000 stand-ins).

Each profile parameterises the trace generator. Values are synthetic but
chosen to span published qualitative characterisations of SPEC2000:
``mcf`` is a pointer-chasing memory hog, ``art``/``swim``/``lucas`` stream
over large arrays, ``crafty``/``vortex`` live in the caches with branchy
integer code, ``equake``/``ammp`` sit in between, and so on. The paper's
experiments depend on the *spread* of memory-boundedness and
load-dependence across the suite rather than on any single benchmark's
absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.core.validation import require_in_range, require_positive

__all__ = [
    "BenchmarkProfile",
    "SPEC2000_INT",
    "SPEC2000_FP",
    "SPEC2000_ALL",
    "get_profile",
]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Trace-generation parameters for one benchmark.

    Attributes
    ----------
    name:
        SPEC2000 benchmark name this profile imitates.
    suite:
        ``"int"`` or ``"fp"``.
    load_frac, store_frac, branch_frac:
        Dynamic instruction mix; the remainder is compute.
    fp_frac:
        Share of compute operations that are floating point.
    mult_frac:
        Share of (int or fp) compute that uses the long-latency multiply
        pipe.
    mispredict_rate:
        Mispredictions per branch.
    dep_prob:
        Geometric parameter of dependency distance: higher means sources
        come from more recent producers (tighter chains, lower ILP).
    working_set:
        Bytes of the randomly revisited data region.
    locality:
        Reuse skew exponent (>1 concentrates accesses on a hot subset).
    stream_frac:
        Fraction of loads that stream sequentially (stride accesses).
    chase_frac:
        Fraction of loads that pointer-chase (serialised chains through
        the cache).
    code_footprint:
        Bytes of instruction memory touched (drives the L1I model).
    stream_buffer:
        Total bytes the sequential streams walk before wrapping; buffers
        larger than the L1 keep generating cold misses (streaming codes),
        small ones become resident.
    stream_stride:
        Bytes between consecutive stream elements; with 32 B blocks the
        stream's L1 miss ratio is roughly stride/32 once the buffer
        exceeds the cache.
    chase_region:
        Bytes the pointer-chase walks over (64 B nodes); large regions
        (mcf) miss constantly, small ones become resident.
    """

    name: str
    suite: str
    load_frac: float
    store_frac: float
    branch_frac: float
    fp_frac: float
    mult_frac: float
    mispredict_rate: float
    dep_prob: float
    working_set: int
    locality: float
    stream_frac: float
    chase_frac: float
    code_footprint: int = 32 * units.KB
    stream_buffer: int = 8 * units.KB
    stream_stride: int = 4
    chase_region: int = 32 * units.KB
    chase_chains: int = 2

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ConfigurationError(f"unknown suite {self.suite!r}")
        for field_name in ("load_frac", "store_frac", "branch_frac"):
            require_in_range(getattr(self, field_name), 0.0, 0.6, field_name)
        if self.load_frac + self.store_frac + self.branch_frac >= 0.9:
            raise ConfigurationError("instruction mix leaves no compute")
        require_in_range(self.fp_frac, 0.0, 1.0, "fp_frac")
        require_in_range(self.mult_frac, 0.0, 1.0, "mult_frac")
        require_in_range(self.mispredict_rate, 0.0, 0.5, "mispredict_rate")
        require_in_range(self.dep_prob, 0.05, 0.95, "dep_prob")
        require_positive(self.working_set, "working_set")
        require_in_range(self.locality, 0.5, 8.0, "locality")
        require_in_range(self.stream_frac, 0.0, 1.0, "stream_frac")
        require_in_range(self.chase_frac, 0.0, 1.0, "chase_frac")
        if self.stream_frac + self.chase_frac > 1.0:
            raise ConfigurationError("stream_frac + chase_frac must be <= 1")
        require_positive(self.code_footprint, "code_footprint")
        require_positive(self.stream_buffer, "stream_buffer")
        require_positive(self.stream_stride, "stream_stride")
        require_positive(self.chase_region, "chase_region")
        require_in_range(self.chase_chains, 1, 4, "chase_chains")


def _p(name, suite, load, store, branch, fp, mult, mispred, dep, ws_kb,
       loc, stream, chase, code_kb=32, sbuf_kb=8, stride=4,
       chase_kb=32, chains=2) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        suite=suite,
        load_frac=load,
        store_frac=store,
        branch_frac=branch,
        fp_frac=fp,
        mult_frac=mult,
        mispredict_rate=mispred,
        dep_prob=dep,
        working_set=int(ws_kb * units.KB),
        locality=loc,
        stream_frac=stream,
        chase_frac=chase,
        code_footprint=int(code_kb * units.KB),
        stream_buffer=int(sbuf_kb * units.KB),
        stream_stride=stride,
        chase_region=int(chase_kb * units.KB),
        chase_chains=chains,
    )


#: 11 integer benchmarks (the paper's SPECint selection).
#: Columns: load store branch fp mult mispred dep ws(KB) loc stream chase
#:          code(KB) streambuf(KB) stride chase(KB)
SPEC2000_INT: Tuple[BenchmarkProfile, ...] = (
    _p("gzip",    "int", 0.24, 0.10, 0.17, 0.00, 0.02, 0.06, 0.30,   6, 2.6, 0.35, 0.05, 32, 128, 2,   4),
    _p("vpr",     "int", 0.28, 0.11, 0.14, 0.05, 0.03, 0.09, 0.30,   4, 2.6, 0.15, 0.20, 32,   4, 4,   3),
    _p("gcc",     "int", 0.26, 0.13, 0.16, 0.00, 0.02, 0.08, 0.30,   5, 2.6, 0.10, 0.15, 96,   4, 4,   3),
    _p("mcf",     "int", 0.34, 0.10, 0.17, 0.00, 0.01, 0.09, 0.35,  48, 1.2, 0.05, 0.40, 32, 256, 8, 1600, 4),
    _p("crafty",  "int", 0.27, 0.09, 0.13, 0.00, 0.03, 0.08, 0.28,   6, 2.8, 0.10, 0.05, 64,   4, 4,   4),
    _p("parser",  "int", 0.26, 0.11, 0.16, 0.00, 0.02, 0.08, 0.30,   4, 2.6, 0.10, 0.30, 32,   4, 4,   3),
    _p("perlbmk", "int", 0.25, 0.14, 0.15, 0.00, 0.02, 0.07, 0.30,   7, 2.4, 0.10, 0.15, 96,   4, 4,   4),
    _p("gap",     "int", 0.24, 0.12, 0.14, 0.00, 0.04, 0.05, 0.30,   5, 2.6, 0.20, 0.10, 32,  16, 3,   3),
    _p("vortex",  "int", 0.28, 0.15, 0.14, 0.00, 0.01, 0.05, 0.28,   7, 2.4, 0.15, 0.10, 128,  8, 4,   4),
    _p("bzip2",   "int", 0.25, 0.10, 0.14, 0.00, 0.02, 0.07, 0.32,   5, 2.6, 0.40, 0.05, 32, 192, 3,   3),
    _p("twolf",   "int", 0.27, 0.09, 0.14, 0.05, 0.03, 0.10, 0.30,   4, 2.6, 0.10, 0.25, 32,   4, 4,   3),
)

#: 13 floating-point benchmarks (the paper's SPECfp selection).
SPEC2000_FP: Tuple[BenchmarkProfile, ...] = (
    _p("wupwise", "fp", 0.22, 0.09, 0.05, 0.75, 0.18, 0.02, 0.28,   4, 2.6, 0.55, 0.00, 32,  96,  8,   5),
    _p("swim",    "fp", 0.26, 0.11, 0.02, 0.85, 0.15, 0.01, 0.28,   4, 2.6, 0.80, 0.00, 32, 760,  8,   5),
    _p("mgrid",   "fp", 0.30, 0.07, 0.02, 0.85, 0.15, 0.01, 0.28,   4, 2.6, 0.75, 0.00, 32, 384,  8,   5),
    _p("applu",   "fp", 0.26, 0.10, 0.03, 0.80, 0.18, 0.01, 0.28,   4, 2.6, 0.70, 0.00, 32, 480,  8,   5),
    _p("mesa",    "fp", 0.24, 0.11, 0.09, 0.50, 0.15, 0.04, 0.30,   7, 2.4, 0.25, 0.05, 96,   6,  4,   5),
    _p("galgel",  "fp", 0.28, 0.08, 0.05, 0.80, 0.18, 0.02, 0.30,   4, 2.6, 0.55, 0.00, 32,  96,  6,   5),
    _p("art",     "fp", 0.28, 0.08, 0.09, 0.70, 0.15, 0.05, 0.32,   5, 2.4, 0.60, 0.05, 32, 640,  8,  32),
    _p("equake",  "fp", 0.30, 0.08, 0.07, 0.65, 0.15, 0.03, 0.32,   5, 2.4, 0.35, 0.20, 32, 224,  6,  44),
    _p("facerec", "fp", 0.26, 0.09, 0.05, 0.70, 0.15, 0.03, 0.30,   4, 2.6, 0.50, 0.00, 32,  96,  6,   5),
    _p("ammp",    "fp", 0.27, 0.10, 0.06, 0.70, 0.15, 0.03, 0.32,   5, 2.4, 0.20, 0.25, 32,  48,  6,  36),
    _p("lucas",   "fp", 0.22, 0.10, 0.02, 0.85, 0.18, 0.01, 0.28,   4, 2.6, 0.75, 0.00, 32, 560,  8,   5),
    _p("fma3d",   "fp", 0.27, 0.12, 0.06, 0.70, 0.15, 0.03, 0.30,   5, 2.4, 0.40, 0.10, 32, 128,  6,  28),
    _p("apsi",    "fp", 0.25, 0.10, 0.04, 0.75, 0.18, 0.02, 0.30,   4, 2.6, 0.50, 0.00, 32,  96,  6,   5),
)

SPEC2000_ALL: Tuple[BenchmarkProfile, ...] = SPEC2000_INT + SPEC2000_FP

_BY_NAME: Dict[str, BenchmarkProfile] = {p.name: p for p in SPEC2000_ALL}


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a profile by benchmark name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
