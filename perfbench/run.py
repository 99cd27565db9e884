"""Paper-scale benchmark of the reproduction, attributed per layer from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

* ``paper-cold`` — fig8, table2-table6, fig9, fig10 and sec45 at 2000 chips
  over all 24 profiles, each pass in a fresh process on an empty store;
* ``yield-sweep`` — the simulation-free artefacts of ``repro all`` for
  consecutive seeds at 2000 chips, each pass in a fresh process on an
  empty store;
* ``serve-mix`` — a closed loop over two keep-alive connections to
  ``repro serve --workers 1`` started on a pre-seeded store.

Every engine is serial (``workers=1``) and every process of a run is
pinned to one CPU. Each process that does timed work runs a host-speed
gauge (``hostspeed.py``), and every time metric is in reference seconds:
the wall time the work takes at the reference host speed. Passes repeat
until ``--seconds`` have gone by, and each metric is a median over the
run. With
``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a run that alternates untraced and traced passes (or phases). Inputs
come from ``--seed`` only; inherited ``REPRO_*`` variables are dropped.
``--scale toy`` shrinks every workload to seconds (the smoke test).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import serve_mix
from hostspeed import Timeline
from passes import peak_rss_mb

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-cold", "yield-sweep", "serve-mix")

PAPER_ARTEFACTS = ("fig8", "table2", "table3", "table4", "table5", "table6",
                   "fig9", "fig10", "sec45")
SWEEP_ARTEFACTS = ("fig8", "table2", "table3", "table4", "table5", "sec42",
                   "ablation_corr", "ablation_sensor", "ablation_assoc",
                   "ablation_temperature")

SCALES: Dict[str, Dict[str, object]] = {
    "paper": {
        "chips": 2000, "trace_length": 1000, "warmup": 500,
        "benchmarks": None, "sweep_seeds": 2, "setup_probes": 3,
        "serve_trace_length": 200, "serve_warmup": 100,
        "coalesce_slots": [100, 250, 400], "digest_slots": 150,
        "min_requests": 1000,
    },
    "toy": {
        "chips": 40, "trace_length": 200, "warmup": 100,
        "benchmarks": ["gzip", "mcf"], "sweep_seeds": 2, "setup_probes": 1,
        "serve_trace_length": 200, "serve_warmup": 100,
        "coalesce_slots": [5], "digest_slots": 10, "min_requests": 40,
    },
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "req_per_s": "req/s", "p50_ms": "ms",
    "p99_ms": "ms", "rss_peak_mb": "MB",
}

#: Per-layer metric -> unit; every traced run prints all of them.
PER_LAYER = {
    "uarch.pipeline_s": "s", "uarch.sim_runs": "count",
    "uarch.sim_instr_per_s": "1/s",
    "cache.access_s": "s", "cache.accesses": "count",
    "workloads.compile_s": "s", "workloads.trace_hit_ratio": "ratio",
    "variation.sample_s": "s", "variation.chips_sampled": "count",
    "circuit.evaluate_s": "s",
    "yieldmodel.assemble_s": "s", "yieldmodel.breakdown_s": "s",
    "yieldmodel.breakdowns": "count",
    "schemes.rescue_s": "s", "schemes.rescues": "count",
    "engine.store.save_s": "s", "engine.store.saves": "count",
    "engine.store.bytes_written": "B", "engine.store.load_s": "s",
    "engine.store.load_hits": "count", "engine.store.load_misses": "count",
    "engine.codec.encode_s": "s", "engine.codec.decode_s": "s",
    "engine.memo_hit_ratio": "ratio", "engine.jobs_run": "count",
    "engine.population_self_s": "s",
    "experiments.self_s": "s",
    "serve.warm_population_ms": "ms", "serve.warm_simulate_ms": "ms",
    "serve.cold_simulate_ms": "ms", "serve.coalesced_population_ms": "ms",
    "serve.metrics_scrape_ms": "ms",
    "serve.parse_s": "s", "serve.admission_wait_s": "s",
    "serve.batch_wait_s": "s", "serve.flight_s": "s", "serve.encode_s": "s",
    "serve.coalesce_ratio": "ratio", "serve.batch_fill": "ratio",
    "serve.warm_frac": "ratio", "serve.rejected": "count",
    "obs.rollup_s": "s", "obs.exposition_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "unattributed_s": "s",
}

#: Span whose self time each per-layer ``*_s`` metric reports.
SELF_TIME = {
    "uarch.pipeline_s": "uarch.pipeline",
    "cache.access_s": "cache.access",
    "workloads.compile_s": "workloads.compile",
    "variation.sample_s": "variation.sample",
    "circuit.evaluate_s": "circuit.evaluate",
    "yieldmodel.assemble_s": "yieldmodel.assemble",
    "yieldmodel.breakdown_s": "yieldmodel.breakdown",
    "schemes.rescue_s": "schemes.rescue",
    "engine.store.save_s": "engine.store.save",
    "engine.store.load_s": "engine.store.load",
    "engine.codec.encode_s": "engine.codec.encode",
    "engine.codec.decode_s": "engine.codec.decode",
    "engine.population_self_s": "engine.population",
    "experiments.self_s": "experiments.run_experiment",
    "serve.parse_s": "serve.parse",
    "serve.admission_wait_s": "serve.admission_wait",
    "serve.batch_wait_s": "serve.batch_wait",
    "serve.flight_s": "serve.flight",
    "serve.encode_s": "serve.encode",
    "obs.rollup_s": "obs.rollup",
    "obs.exposition_s": "obs.exposition",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def log(message: str) -> None:
    print(message, flush=True)


class Run:
    """Scratch space, environment and child processes of one run.

    Everything lives under ``.perfbench/`` in the checkout; the scratch
    directory is removed and every child is stopped when the run ends.
    """

    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.scale = SCALES[args.scale]
        self.paper_scale = args.scale == "paper"
        base = root / ".perfbench"
        base.mkdir(exist_ok=True)
        self.out_dir = base
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        # Hermetic: no inherited REPRO_* knob reaches the program.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                   TMPDIR=str(self.tmp))
        self.env = env
        self.children: List[subprocess.Popen] = []
        self.counter = 0

    def fresh(self, name: str) -> Path:
        self.counter += 1
        return self.tmp / f"{name}-{self.counter}"

    def spawn(self, argv: List[str], env: Optional[dict] = None) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=self.root, env=env or self.env,
            stdout=subprocess.PIPE, text=True,
        )
        self.children.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen, timeout: float) -> None:
        try:
            proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child {proc.args} did not finish in {timeout}s")
        if proc.returncode != 0:
            raise BenchError(f"child {proc.args} exited {proc.returncode}")

    def close(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# batch workloads: paper-cold and yield-sweep
# ----------------------------------------------------------------------
def batch_settings(workload: str, seed: int, scale) -> List[dict]:
    base = {"chips": scale["chips"], "trace_length": scale["trace_length"],
            "warmup": scale["warmup"], "benchmarks": scale["benchmarks"]}
    if workload == "paper-cold":
        return [dict(base, seed=seed)]
    count = scale["sweep_seeds"]
    return [dict(base, seed=count * seed + i) for i in range(count)]


def run_pass(run: Run, traced: bool = False, probe: bool = False
             ) -> Tuple[float, Optional[dict]]:
    """One pass in a fresh process: (set-up, result or None).

    Set-up and the result's ``wall_s`` are reference seconds, scaled with
    the pass process's own probes; ``raw_wall_s`` is the wall time.
    """
    workload = run.args.workload
    result_path = run.fresh("result")
    spec = {
        "workload": workload,
        "settings": batch_settings(workload, run.args.seed, run.scale),
        "experiments": list(PAPER_ARTEFACTS if workload == "paper-cold"
                            else SWEEP_ARTEFACTS),
        "store": str(run.fresh("store")),
        "paper_scale": run.paper_scale,
        "traced": traced,
        "probe": probe,
        "run_id": f"{workload}:seed{run.args.seed}:{run.counter}",
        "result": str(result_path),
        "spans": str(run.out_dir / f"spans-{workload}.jsonl"),
    }
    spec_path = run.fresh("spec")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.perf_counter()
    proc = run.spawn([str(HERE / "passes.py"), str(spec_path)])
    line = proc.stdout.readline()
    ready = time.perf_counter()
    if line.strip() != "READY":
        run.finish(proc, 30)
        raise BenchError(f"pass process announced {line!r}, not READY")
    run.finish(proc, 170)
    shutil.rmtree(spec["store"], ignore_errors=True)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    timeline = Timeline(result.pop("samples"))
    setup = timeline.seconds(started, ready)
    if probe:
        return setup, None
    result["raw_wall_s"] = result["end"] - result["start"]
    result["wall_s"] = timeline.seconds(result["start"], result["end"])
    return setup, result


def batch_correctness(passes: List[dict]) -> Tuple[int, int]:
    """(attempted, failed) artefacts; a pass whose digest differs fails whole."""
    attempted = sum(p["artefacts"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    reference = passes[0]["digest"]
    for p in passes:
        for problem in p["problems"]:
            log(f"check failed: {problem}")
        if p["digest"] != reference:
            log(f"digest mismatch: {p['digest']} != {reference}")
            failed += p["artefacts"] - p["failed"]
    log(f"output digest {reference}")
    return attempted, failed


def batch_end_to_end(run: Run) -> dict:
    run_pass(run, probe=True)  # untimed: byte-compiles and warms file caches
    setups = [run_pass(run, probe=True)[0]
              for _ in range(run.scale["setup_probes"])]
    passes = []
    deadline = time.perf_counter() + run.args.seconds
    while not passes or time.perf_counter() < deadline:
        setup, result = run_pass(run)
        setups.append(setup)
        passes.append(result)
        log(f"pass {len(passes)}: wall {result['wall_s']:.3f}s "
            f"(raw {result['raw_wall_s']:.3f}s) set-up {setup:.3f}s "
            f"rss {result['rss_peak_mb']:.1f}MiB")
    attempted, failed = batch_correctness(passes)
    # A batch user waits for a whole pass, so latency is per pass. (The
    # median artefact lasts ~0.1 s, as short as the host's speed swings.)
    pass_ms = [1e3 * p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "req_per_s": ratio(sum(p["artefacts"] for p in passes),
                           sum(p["wall_s"] for p in passes)),
        "p50_ms": percentile(pass_ms, 50),
        "p99_ms": percentile(pass_ms, 99),
        "rss_peak_mb": statistics.median(p["rss_peak_mb"] for p in passes),
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()}}


def layer_metrics(layers: Dict[str, dict], scale_by: float) -> Dict[str, float]:
    """Per-layer metrics that come straight from span totals."""

    def get(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0.0) / scale_by

    values = {metric: get(span, "self_s") for metric, span in SELF_TIME.items()}
    values["uarch.sim_runs"] = get("uarch.simulator_run", "calls")
    values["uarch.sim_instr_per_s"] = ratio(
        get("uarch.simulator_run", "units"), get("uarch.simulator_run", "total_s")
    )
    values["cache.accesses"] = get("cache.access", "calls")
    values["variation.chips_sampled"] = get("variation.sample", "units")
    values["yieldmodel.breakdowns"] = get("yieldmodel.breakdown", "calls")
    values["schemes.rescues"] = get("schemes.rescue", "calls")
    values["engine.store.saves"] = get("engine.store.save", "calls")
    values["engine.store.load_hits"] = get("engine.store.load", "units")
    values["engine.store.load_misses"] = (
        get("engine.store.load", "calls") - get("engine.store.load", "units")
    )
    reported = set(SELF_TIME.values())
    values["unattributed_s"] = sum(
        get(name, "self_s") for name in layers if name not in reported
    )
    return values


def batch_per_layer(run: Run) -> dict:
    run_pass(run, probe=True)
    untraced, traced = [], []
    deadline = time.perf_counter() + run.args.seconds
    while not traced or time.perf_counter() < deadline:
        for flag, bucket in ((False, untraced), (True, traced)):
            bucket.append(run_pass(run, traced=flag)[1])
    attempted, failed = batch_correctness(untraced + traced)
    n = len(traced)
    merged: Dict[str, dict] = {}
    for result in traced:
        for name, row in result["layers"].items():
            acc = merged.setdefault(name, {})
            for field, value in row.items():
                acc[field] = acc.get(field, 0.0) + value
    values = {name: 0.0 for name in PER_LAYER}
    values.update(layer_metrics(merged, n))
    engine = [r["engine"] for r in traced]
    values["engine.store.bytes_written"] = (
        sum(e["store_bytes_written"] for e in engine) / n
    )
    values["engine.memo_hit_ratio"] = ratio(
        sum(e["jobs_cached_memory"] for e in engine),
        sum(e["jobs_total"] for e in engine),
    )
    values["engine.jobs_run"] = sum(e["jobs_run"] for e in engine) / n
    hits = sum(r["trace_cache"]["hits"] for r in traced)
    values["workloads.trace_hit_ratio"] = ratio(
        hits, hits + sum(r["trace_cache"]["misses"] for r in traced)
    )
    values["obs.trace_overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0
    )
    log(f"{n} traced and {len(untraced)} untraced passes; spans in "
        f"{run.out_dir / ('spans-' + run.args.workload + '.jsonl')}")
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: (v, PER_LAYER[k]) for k, v in values.items()}}


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def _get(port: int, path: str, accept: Optional[str] = None,
         timeout: float = 5.0) -> Tuple[int, bytes]:
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    if accept:
        request.add_header("Accept", accept)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read()


class Server:
    """One server process (``serve_mix.py launch``) on a given store.

    After :meth:`stop`, ``report`` holds what the launcher wrote,
    ``timeline`` its probes and ``setup_s`` the reference seconds from
    spawn to the first ``/healthz`` 200.
    """

    def __init__(self, run: Run, store: Path, traced: bool) -> None:
        self.run = run
        env = dict(run.env, REPRO_CACHE_DIR=str(store))
        self.out = run.fresh("launch")
        argv = [str(HERE / "serve_mix.py"), "launch", str(self.out),
                str(run.out_dir / "spans-serve-mix.jsonl"),
                "1" if traced else "0"]
        started = time.perf_counter()
        self.proc = run.spawn(argv, env=env)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            run.finish(self.proc, 30)
            raise BenchError(f"server announced {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                if _get(self.port, "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - started > 60:
                raise BenchError("server never answered /healthz")
            time.sleep(0.002)
        self.started, self.healthy = started, time.perf_counter()

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.run.finish(self.proc, 90)
        self.report = json.loads(self.out.read_text(encoding="utf-8"))
        self.timeline = Timeline(self.report["samples"])
        self.setup_s = self.timeline.seconds(self.started, self.healthy)


def serve_plan(run: Run) -> Tuple[dict, Path]:
    """The run's inputs and a store pre-seeded with them (outside metrics)."""
    plan = serve_mix.make_plan(run.args.seed, run.scale)
    store = run.fresh("store")
    spec_path = run.fresh("seed-spec")
    spec_path.write_text(json.dumps({"plan": plan, "store": str(store)}),
                         encoding="utf-8")
    run.finish(run.spawn([str(HERE / "serve_mix.py"), "seed", str(spec_path)]),
               170)
    return plan, store


def serve_counters(port: int) -> Dict[str, float]:
    status, body = _get(port, "/metrics", accept="application/json",
                        timeout=30)
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    return json.loads(body)["engine"]["counters"]


def serve_end_to_end(run: Run) -> dict:
    plan, store = serve_plan(run)
    setups = []
    for _ in range(run.scale["setup_probes"]):
        probe = Server(run, store, traced=False)
        probe.stop()
        setups.append(probe.setup_s)
    server = Server(run, store, traced=False)
    drive = serve_mix.Drive(plan).run(server.port, run.args.seconds)
    counters = serve_counters(server.port)
    rss = peak_rss_mb(str(server.proc.pid))
    server.stop()
    setups.append(server.setup_s)
    raw_wall = drive.wall_s()
    drive.timeline = server.timeline
    rejected = (counters.get("serve.admit.rejected_429", 0)
                + counters.get("serve.admit.rejected_503", 0))
    log(f"{drive.attempted} requests, {drive.failed} failed, "
        f"{rejected:g} rejected; output digest {drive.digest()}")
    log(f"phase per {plan['min_requests']} replies {drive.wall_s():.3f}s "
        f"(raw {raw_wall:.3f}s)")
    for kind in serve_mix.ALL_CLASSES:
        values = drive.latencies_ms(kind)
        if not values:
            continue
        log(f"  {kind:22s} n={len(values):5d} p50 {percentile(values, 50):8.2f}ms"
            f" p90 {percentile(values, 90):8.2f}ms max {values[-1]:8.2f}ms")
    latencies = drive.latencies_ms()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": drive.wall_s(),
        "req_per_s": drive.req_per_s(),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "rss_peak_mb": rss,
    }
    return {"attempted": drive.attempted, "failed": drive.failed,
            "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()}}


def serve_per_layer(run: Run) -> dict:
    plan, store = serve_plan(run)
    twin = run.fresh("store")
    shutil.copytree(store, twin)
    half = run.args.seconds / 2.0
    plain_server = Server(run, store, traced=False)
    plain = serve_mix.Drive(plan).run(plain_server.port, half)
    plain_server.stop()
    plain.timeline = plain_server.timeline
    server = Server(run, twin, traced=True)
    drive = serve_mix.Drive(plan).run(server.port, half)
    counters = serve_counters(server.port)
    server.stop()
    drive.timeline = server.timeline
    launched = server.report
    layers = launched["layers"]
    values = {name: 0.0 for name in PER_LAYER}
    values.update(layer_metrics(layers, 1.0))
    # Requests of one dispatch wait for its engine work; the rest of the
    # time inside SimulationBatcher.simulate is the batch window.
    values["serve.batch_wait_s"] = max(
        0.0, values["serve.batch_wait_s"]
        - layers.get("engine.simulate_many", {}).get("total_s", 0.0)
    )
    for kind in serve_mix.ALL_CLASSES:
        values[f"serve.{kind}_ms"] = drive.class_p50_ms(kind)
    values["serve.coalesce_ratio"] = ratio(
        counters.get("serve.coalesce.joined", 0.0), drive.duplicates
    )
    values["serve.batch_fill"] = ratio(counters.get("serve.batch.jobs", 0.0),
                                       counters.get("serve.batch.dispatches", 0.0))
    warm = counters.get("serve.request.warm", 0.0)
    values["serve.warm_frac"] = ratio(
        warm, warm + counters.get("serve.request.cold", 0.0)
    )
    values["serve.rejected"] = (counters.get("serve.admit.rejected_429", 0.0)
                                + counters.get("serve.admit.rejected_503", 0.0))
    values["engine.store.bytes_written"] = counters.get("store.bytes_written", 0.0)
    # The server's submit path answers memo hits before the engine's own
    # lookup, under engine.inflight.cached.<kind>.
    memo = counters.get("engine.jobs.cached_memory", 0.0) + sum(
        value for name, value in counters.items()
        if name.startswith("engine.inflight.cached.")
    )
    values["engine.jobs_run"] = counters.get("engine.jobs.run", 0.0)
    values["engine.memo_hit_ratio"] = ratio(
        memo, memo + values["engine.jobs_run"]
        + counters.get("engine.jobs.cached_disk", 0.0)
    )
    trace = launched["trace_cache"]
    values["workloads.trace_hit_ratio"] = ratio(
        trace["hits"], trace["hits"] + trace["misses"]
    )
    values["obs.trace_overhead_frac"] = (
        percentile(drive.latencies_ms(), 50) / percentile(plain.latencies_ms(), 50)
        - 1.0
    )
    log(f"untraced {plain.attempted} and traced {drive.attempted} requests; "
        f"spans in {run.out_dir / 'spans-serve-mix.jsonl'}")
    return {"attempted": plain.attempted + drive.attempted,
            "failed": plain.failed + drive.failed,
            "metrics": {k: (v, PER_LAYER[k]) for k, v in values.items()}}


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="paper")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro to benchmark; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # One CPU for every process of the run, which the children inherit:
    # the gauge of the process doing the work then measures the CPU that
    # the whole run uses.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(root, args)
    try:
        if args.workload == "serve-mix":
            outcome = serve_per_layer(run) if args.trace else serve_end_to_end(run)
        else:
            outcome = batch_per_layer(run) if args.trace else batch_end_to_end(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    for name, (value, unit) in outcome["metrics"].items():
        log(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
