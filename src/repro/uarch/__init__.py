"""Out-of-order pipeline simulator (the paper's SimpleScalar substitute).

The paper measures performance with a modified SimpleScalar 3.0: a 4-wide
out-of-order core (issue queue 128, ROB 256) with 7 pipeline stages
between the schedule and execute stages, speculative scheduling of load
dependents, selective replay on misses, and — for VACA — load-bypass
buffers in front of every functional unit that let a dependent stall one
cycle when its load resolves in 5 cycles instead of 4.

This subpackage implements that machine as a trace-driven, cycle-level
simulator. Traces arrive compiled, as the packed columns of
:class:`repro.workloads.compiled.CompiledTrace`:

* :mod:`repro.uarch.isa` — operation classes, functional-unit kinds and
  the architectural register count.
* :mod:`repro.uarch.config` — core parameters (paper Section 5.2).
* :mod:`repro.uarch.lbb` — load-bypass buffer accounting.
* :mod:`repro.uarch.pipeline` — the scheduling/replay engine.
* :mod:`repro.uarch.simulator` — top-level simulator and results.
"""

from repro.uarch.isa import OpClass, FU_LATENCIES
from repro.uarch.config import CoreConfig, PAPER_CORE
from repro.uarch.simulator import SimResult, Simulator

__all__ = [
    "OpClass",
    "FU_LATENCIES",
    "CoreConfig",
    "PAPER_CORE",
    "SimResult",
    "Simulator",
]
