"""The simulation job, executed inside worker processes.

:func:`simulation_job` is module-level (picklable by qualified name) and
takes a single plain-data job argument, so the executor can ship it over
a ``ProcessPoolExecutor`` unchanged and also run it in-process for the
serial path and the degraded-retry path. Its trace RNG is derived from
``(seed, benchmark)``, so one job is one complete, self-contained
simulation. The chip job, behind every population and estimate, is
:func:`repro.engine.chips.chip_shard`.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.trace import span as trace_span

__all__ = ["simulation_job"]

#: Simulation job: plain-dict identity (see :func:`simulation_job`).
SimulationJob = Dict[str, object]


def simulation_job(job: SimulationJob):
    """Run one benchmark under one L1D configuration.

    ``job`` carries ``seed``, ``trace_length``, ``warmup``, ``benchmark``,
    and either ``way_cycles`` (list with ``None`` for disabled ways) or
    ``uniform_latency`` (naive binning), matching
    :meth:`repro.engine.core.Engine.simulate`. The trace comes from
    the worker's process-level compiled-trace cache, keyed by
    ``(benchmark, seed)``, so one stream is generated and packed once
    per worker instead of once per job.
    """
    from repro.cache.setassoc import WayConfig
    from repro.uarch import PAPER_CORE, Simulator
    from repro.workloads import get_compiled_trace, get_profile

    seed = int(job["seed"])
    trace_length = int(job["trace_length"])
    warmup = int(job["warmup"])
    benchmark = str(job["benchmark"])
    way_cycles = job.get("way_cycles")
    uniform_latency = job.get("uniform_latency")

    with trace_span(
        "worker:simulation", benchmark=benchmark, instructions=trace_length
    ):
        trace = get_compiled_trace(
            get_profile(benchmark), seed, warmup + trace_length
        )
        core = PAPER_CORE
        l1d_config = None
        if uniform_latency is not None:
            core = core.replace(predicted_load_latency=int(uniform_latency))
        elif way_cycles is not None:
            l1d_config = WayConfig(
                latencies=tuple(
                    None if cycle is None else int(cycle)
                    for cycle in way_cycles
                )
            )
        simulator = Simulator(
            core=core,
            l1d_config=l1d_config,
            uniform_load_latency=(
                None if uniform_latency is None else int(uniform_latency)
            ),
        )
        return simulator.run(trace, warmup=warmup)
