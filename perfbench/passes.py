"""One pass of a batch workload, in a fresh process on an empty store.

Run as ``python3 perfbench/passes.py SPEC.json`` with ``src`` on the
Python path (``run.py`` does this). The process starts its host-speed
gauge, imports the program, configures a serial engine on a fresh store,
prints ``READY`` (the parent times set-up from its spawn to that line),
produces every artefact of the pass through
``repro.experiments.run_experiment``, checks them, and writes a JSON
result to ``spec["result"]``: the gauge's probe samples, the pass's start
and end, and what it produced. With ``spec["traced"]`` the layer wrappers
are installed before the engine exists, and the spans are written to
``spec["spans"]``.

The spec holds ``workload``, ``settings`` (a list of ExperimentSettings
fields), ``experiments``, ``store`` (an empty directory), ``paper_scale``,
``traced``, ``probe`` (exit right after ``READY``), ``run_id``,
``result`` and ``spans``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from hostspeed import Gauge


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def _simulation_specs(settings):
    """Every (benchmark, way cycles, uniform latency) the paper artefacts run."""
    from repro.experiments.common import benchmark_names
    from repro.experiments.table6 import CONFIG_ORDER, config_way_cycles

    names = benchmark_names(settings)
    configs = {
        config_way_cycles(config, scheme)
        for config in CONFIG_ORDER
        for scheme in ("YAPD", "VACA", "Hybrid")
    }
    configs.discard(None)
    specs = [(name, None, None) for name in names]
    for cycles in sorted(configs, key=str):
        specs.extend((name, cycles, None) for name in names)
    for uniform in (5, 6):
        specs.extend((name, None, uniform) for name in names)
    return specs


def main(spec_path: str) -> int:
    gauge = Gauge().start()
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import repro.experiments
    from repro.engine import configure_engine
    from repro.experiments import ExperimentSettings

    recorder = None
    if spec["traced"]:
        import tracer

        recorder = tracer.Recorder(run_id=spec["run_id"])
        tracer.install(recorder, tracer.BATCH_TARGETS)
    engine = configure_engine(workers=1, cache_dir=spec["store"])
    print("READY", flush=True)
    if spec["probe"]:
        with open(spec["result"], "w", encoding="utf-8") as handle:
            json.dump({"samples": gauge.stop()}, handle)
        return 0

    all_settings = [
        ExperimentSettings(
            seed=s["seed"], chips=s["chips"], trace_length=s["trace_length"],
            warmup=s["warmup"],
            benchmarks=tuple(s["benchmarks"]) if s["benchmarks"] else None,
        )
        for s in spec["settings"]
    ]
    produced = []
    start = time.perf_counter()
    with recorder.span("bench.pass") if recorder else contextlib.nullcontext():
        for settings in all_settings:
            for name in spec["experiments"]:
                # Looked up at call time, so the traced run sees the wrapper.
                result = repro.experiments.run_experiment(name, settings)
                produced.append((settings, result))
    end = time.perf_counter()
    samples = gauge.stop()

    import checks
    from repro.workloads import trace_cache_info

    # Counters first: the digest below replays simulations from the memo.
    stats = engine.stats
    counters = engine.metrics.snapshot()["counters"]
    trace_info = trace_cache_info()
    out = {
        "start": start,
        "end": end,
        "samples": samples,
        "artefacts": len(produced),
        "rss_peak_mb": peak_rss_mb(),
        "engine": {
            "jobs_run": stats.jobs_run,
            "jobs_cached_memory": stats.jobs_cached_memory,
            "jobs_total": stats.jobs_total,
            "store_bytes_written": counters.get("store.bytes_written", 0.0),
        },
        "trace_cache": {"hits": trace_info["hits"],
                        "misses": trace_info["misses"]},
    }
    if recorder is not None:
        out["layers"] = recorder.totals()
        recorder.dump(spec["spans"])

    problems = []
    failed = 0
    digest = checks.Digest()
    for settings, result in produced:
        found = checks.check_artefact(result, settings, spec["paper_scale"])
        failed += bool(found)
        problems.extend(found)
        digest.add(f"{result.experiment}:{settings.seed}:data", result.data)
        digest.add(f"{result.experiment}:{settings.seed}:text", result.text)
    if spec["workload"] == "paper-cold":
        # Memo hits only: every simulated statistic of the pass, in order.
        for settings in all_settings:
            specs = _simulation_specs(settings)
            for sim_spec, sim in zip(specs, engine.simulate_many(settings, specs)):
                digest.add(f"sim:{settings.seed}:{sim_spec}", sim)
    out.update(failed=failed, problems=problems, digest=digest.hexdigest())
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
