"""Top-level simulator interface and results.

:class:`Simulator` wires a core configuration, a memory hierarchy (with a
yield-aware L1D way configuration) and a compiled trace into the
pipeline engine and returns a :class:`SimResult` with CPI and the
counters the paper's performance experiments need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy, PAPER_HIERARCHY
from repro.cache.setassoc import WayConfig
from repro.core.errors import SimulationError
from repro.obs.trace import span as trace_span
from repro.uarch.config import CoreConfig, PAPER_CORE
from repro.uarch.pipeline import PipelineEngine

__all__ = ["SimResult", "Simulator"]


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    instructions:
        Committed instruction count.
    cycles:
        Total execution cycles.
    replays:
        Speculatively issued instructions squashed and reissued.
    lbb_stalls:
        Instructions that absorbed a late load in a load-bypass buffer.
    slow_way_hits:
        L1D hits served by a slower-than-predicted (5-cycle) way.
    branch_mispredicts:
        Mispredicted branches executed.
    loads, stores:
        Memory operations executed.
    hierarchy_stats:
        Flat cache counters (see ``MemoryHierarchy.statistics``).
    """

    instructions: int
    cycles: int
    replays: int
    lbb_stalls: int
    slow_way_hits: int
    branch_mispredicts: int
    loads: int
    stores: int
    hierarchy_stats: Dict[str, float]

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        if self.instructions == 0:
            raise SimulationError("no instructions committed")
        return self.cycles / self.instructions

    def degradation_vs(self, baseline: "SimResult") -> float:
        """Fractional CPI increase relative to ``baseline``."""
        return self.cpi / baseline.cpi - 1.0


class Simulator:
    """Convenience front door for one pipeline simulation.

    Parameters
    ----------
    core:
        Core configuration (defaults to the paper's 4-wide machine).
    hierarchy_config:
        Cache/memory parameters (defaults to the paper's Section 5.2).
    l1d_config:
        Yield-aware L1D way configuration (defaults to healthy).
    uniform_load_latency:
        Naive-binning latency override (Section 4.5), if any.
    """

    def __init__(
        self,
        core: CoreConfig = PAPER_CORE,
        hierarchy_config: HierarchyConfig = PAPER_HIERARCHY,
        l1d_config: Optional[WayConfig] = None,
        uniform_load_latency: Optional[int] = None,
    ) -> None:
        self.core = core
        self.hierarchy_config = hierarchy_config
        self.l1d_config = l1d_config
        self.uniform_load_latency = uniform_load_latency

    def run(self, trace, warmup: int = 0) -> SimResult:
        """Simulate ``trace`` to completion and return the result.

        ``trace`` is a :class:`repro.workloads.compiled.CompiledTrace`,
        as :func:`repro.workloads.get_compiled_trace` returns. The
        replay runs under a ``ctrace.replay`` span, so flamegraphs
        attribute time to compile vs replay.

        ``warmup`` instructions are executed first to warm the caches;
        CPI and all counters cover only the instructions after them.
        """
        hierarchy = MemoryHierarchy(
            config=self.hierarchy_config,
            l1d_config=self.l1d_config,
            uniform_load_latency=self.uniform_load_latency,
        )
        engine = PipelineEngine(
            self.core, hierarchy, trace, warmup_instructions=warmup
        )
        with trace_span("simulator.run", warmup=warmup) as sp:
            start = time.perf_counter()
            with trace_span("ctrace.replay", instructions=trace.length):
                engine.run()
            elapsed = time.perf_counter() - start
        if engine.committed <= warmup:
            raise SimulationError(
                "trace too short: nothing committed after warmup"
            )
        if elapsed > 0.0:
            sp.set(
                instructions=engine.committed,
                cycles=engine.cycle,
                events_per_second=round(engine.committed / elapsed, 1),
            )
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
