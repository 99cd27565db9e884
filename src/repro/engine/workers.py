"""Job functions executed inside worker processes.

Both functions are module-level (picklable by qualified name) and take a
single plain-data job argument, so the executor can ship them over a
``ProcessPoolExecutor`` unchanged and also run them in-process for the
serial path and the degraded-retry path.

Determinism: a chip shard covers chip ids ``[start, stop)`` of one
tagged stream and every chip's RNG is derived from ``(seed, tag,
chip_id)`` alone, so any sharding of the id range concatenates to the
exact serial population. A simulation job's trace RNG is derived from
``(seed, benchmark)``, so one job is one complete, self-contained
simulation.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.trace import span as trace_span

__all__ = ["chip_shard", "simulation_job"]

#: Chip shard job: plain-dict stream range (see :func:`chip_shard`).
ChipJob = Dict[str, object]

#: Simulation job: plain-dict identity (see :func:`simulation_job`).
SimulationJob = Dict[str, object]


def chip_shard(job: ChipJob):
    """Draw and evaluate one tagged chip range: every population shard
    and every estimator batch.

    ``job`` carries ``seed``, ``tag``, ``start``, ``stop`` and the
    optional die-slot transforms ``shift`` (IS mean tilt, list of
    floats) and ``stratum`` (``[index, strata]``). Chip ``i`` of stream
    ``tag`` always draws from ``spawn(seed, f"{tag}-{i}")``, so any
    sharding of the range concatenates bit-identically — see
    :func:`repro.yieldmodel.estimators.sampling.sample_shard`.
    """
    from repro.yieldmodel.estimators.sampling import sample_shard

    seed = int(job["seed"])
    tag = str(job["tag"])
    start = int(job["start"])
    stop = int(job["stop"])
    shift = job.get("shift")
    stratum = job.get("stratum")
    with trace_span(
        "worker:chip_shard", tag=tag, start=start, stop=stop, seed=seed
    ):
        return sample_shard(
            seed,
            tag,
            start,
            stop,
            shift=None if shift is None else [float(v) for v in shift],
            stratum=(
                None
                if stratum is None
                else (int(stratum[0]), int(stratum[1]))
            ),
        )


def simulation_job(job: SimulationJob):
    """Run one benchmark under one L1D configuration.

    ``job`` carries ``seed``, ``trace_length``, ``warmup``, ``benchmark``,
    and either ``way_cycles`` (list with ``None`` for disabled ways) or
    ``uniform_latency`` (naive binning), matching
    :func:`repro.experiments.common.simulate_config`. The dispatcher
    also ships the compiled-trace cache key (``ctrace``); the worker
    resolves it against its process-level compiled-trace cache, so one
    (benchmark, seed) stream is generated and packed once per worker
    instead of once per job.
    """
    from repro.cache.setassoc import WayConfig
    from repro.uarch import PAPER_CORE, Simulator
    from repro.workloads import get_compiled_trace, get_profile, trace_key

    seed = int(job["seed"])
    trace_length = int(job["trace_length"])
    warmup = int(job["warmup"])
    benchmark = str(job["benchmark"])
    way_cycles = job.get("way_cycles")
    uniform_latency = job.get("uniform_latency")
    shipped_key = job.get("ctrace")

    with trace_span(
        "worker:simulation", benchmark=benchmark, instructions=trace_length
    ):
        profile = get_profile(benchmark)
        total = warmup + trace_length
        if shipped_key is not None and shipped_key != trace_key(
            profile.name, seed, total
        ):
            raise ValueError(
                f"compiled-trace key mismatch for {benchmark!r}: the "
                "dispatcher and worker disagree on the trace identity"
            )
        trace = get_compiled_trace(profile, seed, total)
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
