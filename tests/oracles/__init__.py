"""Reference implementations the differential batteries compare against.

These are frozen copies of the per-stage simulator that production
replaced with one fused kernel: ``pipeline.py`` (the stage-method
``PipelineEngine``), ``hierarchy.py`` and ``setassoc.py`` (the
dataclass-per-access cache hierarchy) and ``replacement.py`` (the
per-set LRU policy object). Only their imports differ from the
originals, so that each oracle module uses its oracle siblings, and the
``CacheGeometry`` address methods they called, which are functions of
``setassoc.py`` now. ``classify.py`` is the per-chip classification
(``ChipCase``, with its own scalar delay-to-cycles and limit checks)
before its leakage facts were cached, ``columnar.py`` the columnar
sampler's per-chip ``Generator`` draws before populations were decoded
from raw stream words, and ``schemes.py`` the per-chip scheme rescues
(``RescueOutcome`` and the paper schemes) before they became array
decisions. ``sampling.py`` is the scalar per-parameter sampler and
``circuit.py`` the composed per-stage circuit physics (devices, wires,
SRAM stages, decoder, access path) that populations were drawn and
evaluated with before the columnar sampler and kernel became the only
production path, with the per-chip result types it returns.
``generator.py`` is the per-instruction trace generator and
``trace.py`` its validated instruction record (``TraceInstruction``),
from before traces were generated as columns; ``compiled.py`` packs
instructions into a compiled trace (``from_instructions``, which
hand-written test traces go through too) and decodes a compiled trace
back into the instructions these oracles replay. They are never
imported by ``src/``; their job is to pin every statistic the
production code reports, bit for bit.
"""
from __future__ import annotations

from typing import Iterable, Optional

from repro.cache.setassoc import WayConfig
from repro.core.errors import SimulationError
from repro.uarch.config import CoreConfig, PAPER_CORE
from repro.uarch.simulator import SimResult

from .hierarchy import MemoryHierarchy, PAPER_HIERARCHY
from .pipeline import PipelineEngine

__all__ = ["simulate"]


def simulate(
    trace: Iterable,
    warmup: int = 0,
    core: CoreConfig = PAPER_CORE,
    l1d_config: Optional[WayConfig] = None,
    uniform_load_latency: Optional[int] = None,
) -> SimResult:
    """What ``Simulator.run`` returned before the fused kernel.

    ``trace`` is a ``TraceInstruction`` iterable; ``compiled.instructions``
    reads one out of a compiled trace.
    """
    hierarchy = MemoryHierarchy(
        config=PAPER_HIERARCHY,
        l1d_config=l1d_config,
        uniform_load_latency=uniform_load_latency,
    )
    engine = PipelineEngine(core, hierarchy, trace, warmup_instructions=warmup)
    engine.run()
    if engine.committed <= warmup:
        raise SimulationError("trace too short: nothing committed after warmup")
    return SimResult(
        instructions=engine.committed - warmup,
        cycles=engine.cycle - engine.warmup_cycle,
        replays=engine.replay_count,
        lbb_stalls=engine.lbb.total_stalls,
        slow_way_hits=engine.slow_way_hits,
        branch_mispredicts=engine.branch_mispredicts,
        loads=engine.load_count,
        stores=engine.store_count,
        hierarchy_stats=hierarchy.statistics(),
    )
