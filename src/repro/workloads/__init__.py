"""SPEC2000-like synthetic workloads.

The paper simulates 13 floating-point and 11 integer SPEC2000 benchmarks
(100M instructions after SimPoint fast-forward). SPEC2000 binaries and
reference inputs are proprietary and SimpleScalar traces are unavailable,
so this subpackage synthesises dependency-annotated instruction traces
from per-benchmark *profiles*: instruction mix, branch behaviour,
dependency tightness, and a memory-access model mixing streaming,
random-with-locality, and pointer-chasing references over a configurable
working set.

Traces are generated as columns: :func:`compile_trace` fills the seven
packed buffers the simulation kernel reads (op code, dest, two sources,
data address, pc, mispredict flag) in one NumPy pass over the
generator's draw blocks, and :func:`get_compiled_trace` caches them per
``(profile, seed)`` under a fixed byte budget. There is no
per-instruction object; the per-instruction generator they were derived
from is the oracle in ``tests/oracles/``.

The profiles are calibrated so the *population* spans the behaviours that
drive the paper's performance results — memory-bound codes (mcf, art,
swim) that are sensitive to losing a cache way, pointer-chasers whose
load-to-use chains amplify VACA's extra cycle, and compute-bound codes
(crafty, sixtrack-like) that barely notice either.
"""

from repro.workloads.profiles import (
    BenchmarkProfile,
    SPEC2000_INT,
    SPEC2000_FP,
    SPEC2000_ALL,
    get_profile,
)
from repro.workloads.compiled import (
    CompiledTrace,
    clear_trace_cache,
    compile_trace,
    get_compiled_trace,
    trace_cache_info,
)

__all__ = [
    "BenchmarkProfile",
    "SPEC2000_INT",
    "SPEC2000_FP",
    "SPEC2000_ALL",
    "get_profile",
    "CompiledTrace",
    "compile_trace",
    "get_compiled_trace",
    "trace_cache_info",
    "clear_trace_cache",
]
