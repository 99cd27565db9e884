"""The serve-mix workload: a closed loop over two keep-alive connections.

One client process (the benchmark) drives ``repro serve --workers 1``
from two threads, each holding one keep-alive connection and sending its
next request only after the previous reply was read to the end (callers
wait for their replies, so a closed loop is the honest model). The server
starts on a store that already holds the mix's hot populations and half
of its simulation keys, as after a restart. Request classes:

* ``warm_population`` — population summaries over the hot (seed, policy)
  set at paper scale: the memo, and after the restart the store's read
  path and the population decoder;
* ``warm_simulate`` — simulations over the 24 profiles x Table 6 way
  configurations whose results the store already holds;
* ``cold_simulate`` — a simulation of a trace seed nobody asked for yet,
  so the server compiles the trace, simulates and saves;
* ``coalesced_population`` — at fixed slots both connections send one
  cold population at the same moment, so one flight serves both;
* ``metrics_scrape`` — ``GET /metrics`` in the text exposition.

The class shares put the median inside ``warm_population`` and the 99th
percentile inside ``cold_simulate``; the few cold and first-load
populations sit above it.

Run as a script this module has two sub-commands, both started by
``run.py`` with ``src`` on the Python path: ``seed SPEC.json`` fills a
store with the pre-seeded entries, and ``launch OUT.json SPANS.jsonl
TRACED`` is the server, the same as ``repro serve --port 0 --workers 1``:
it starts its host-speed gauge (and, when ``TRACED`` is 1, installs the
layer wrappers), then runs ``repro.serve.server.run_server`` until
SIGTERM and writes the gauge's probe samples (and the layer totals and
spans). Request latencies are scaled with the server's probes, because
the client and the server share one CPU.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from hostspeed import Gauge, Timeline

HOT_POLICIES = ("nominal", "strict")
CLASSES = ("warm_population", "warm_simulate", "cold_simulate",
           "metrics_scrape")
ALL_CLASSES = CLASSES + ("coalesced_population",)
#: Share of each class outside the fixed coalesced slots.
WEIGHTS = (0.80, 0.10, 0.03, 0.07)
#: Way configurations of Table 6 plus the healthy baseline (None).
WAY_CONFIGS = (
    None, (4, 4, 4, None), (4, 4, 4, 5), (4, 4, 5, 5), (4, 5, 5, 5),
    (5, 5, 5, 5), (4, 4, 5, None), (4, 5, 5, None), (5, 5, 5, None),
)


def make_plan(seed: int, scale: Dict[str, object]) -> Dict[str, object]:
    """Every input of one serve-mix run, derived from the seed."""
    from repro.workloads import SPEC2000_ALL

    benchmarks = scale["benchmarks"] or [p.name for p in SPEC2000_ALL]
    universe = [[name, cycles] for name in benchmarks for cycles in WAY_CONFIGS]
    rng = random.Random(f"serve-mix-plan:{seed}")
    preseeded = sorted(rng.sample(range(len(universe)), len(universe) // 2))
    return {
        "chips": scale["chips"],
        "trace_length": scale["serve_trace_length"],
        "warmup": scale["serve_warmup"],
        "hot": [[10_000 + 10 * seed + i, policy]
                for i in range(2) for policy in HOT_POLICIES],
        "sim_seed": 20_000 + seed,
        "benchmarks": benchmarks,
        "preseeded": [universe[i] for i in preseeded],
        "cold_population_seed": 30_000 + 100 * seed,
        "cold_simulate_seed": 1_000_000 + 100_000 * seed,
        "coalesce_slots": scale["coalesce_slots"],
        "digest_slots": scale["digest_slots"],
        "min_requests": scale["min_requests"],
        "seed": seed,
    }


# ----------------------------------------------------------------------
# request bodies
# ----------------------------------------------------------------------
def _population_body(plan, seed: int, policy: str) -> bytes:
    return json.dumps({"seed": seed, "chips": plan["chips"],
                       "policy": policy}, sort_keys=True).encode()


def _simulate_body(plan, benchmark: str, cycles, seed: int) -> bytes:
    body = {"benchmark": benchmark, "seed": seed,
            "trace_length": plan["trace_length"], "warmup": plan["warmup"]}
    if cycles is not None:
        body["way_cycles"] = list(cycles)
    return json.dumps(body, sort_keys=True).encode()


class Schedule:
    """The deterministic request sequence of one connection."""

    def __init__(self, plan, connection: int) -> None:
        self.plan = plan
        self.connection = connection
        self.rng = random.Random(f"serve-mix:{plan['seed']}:{connection}")
        self.cold = 0

    def request(self, slot: int) -> Tuple[str, str, str, Optional[bytes]]:
        """(class, method, path, body) of the request in ``slot``."""
        plan = self.plan
        if slot in plan["coalesce_slots"]:
            seed = plan["cold_population_seed"] + plan["coalesce_slots"].index(slot)
            return ("coalesced_population", "POST", "/v1/population",
                    _population_body(plan, seed, "nominal"))
        kind = self.rng.choices(CLASSES, WEIGHTS)[0]
        if kind == "warm_population":
            seed, policy = self.rng.choice(plan["hot"])
            return (kind, "POST", "/v1/population",
                    _population_body(plan, seed, policy))
        if kind == "warm_simulate":
            benchmark, cycles = self.rng.choice(plan["preseeded"])
            return (kind, "POST", "/v1/simulate",
                    _simulate_body(plan, benchmark, cycles, plan["sim_seed"]))
        if kind == "cold_simulate":
            # A fresh trace seed per request: every cold simulation
            # compiles its trace, simulates and saves.
            benchmark = self.rng.choice(plan["benchmarks"])
            cycles = self.rng.choice(WAY_CONFIGS)
            seed = (plan["cold_simulate_seed"] + 50_000 * self.connection
                    + self.cold)
            self.cold += 1
            return (kind, "POST", "/v1/simulate",
                    _simulate_body(plan, benchmark, cycles, seed))
        return (kind, "GET", "/metrics", None)


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP connection to the server.

    Not ``repro.serve.client.ServeClient``: that client decodes replies
    and retries a dropped connection once, while the benchmark compares
    raw reply bytes and counts every failed request.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _check(plan, kind: str, data: bytes) -> bool:
    """Is one 200 body a well-formed answer of its class?"""
    if kind == "metrics_scrape":
        return b"repro_serve" in data
    try:
        payload = json.loads(data)
    except ValueError:
        return False
    if kind.endswith("population"):
        base = payload.get("regular", {}).get("base_yield", -1.0)
        return (payload.get("kind") == "population"
                and payload.get("population") == plan["chips"]
                and 0.0 <= base <= 1.0)
    result = payload.get("result", {})
    return (payload.get("kind") == "simulation"
            and result.get("instructions") == plan["trace_length"]
            and result.get("cycles", 0) > 0)


class Drive:
    """Results of one closed-loop phase against one server."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.records: List[Tuple[str, float, float, bool]] = []
        self.first: Dict[bytes, bytes] = {}
        self.digest_keys: set = set()
        #: Requests sent while the other connection had the same one open.
        self.duplicates = 0
        self._open: List[Optional[bytes]] = [None, None]
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(2)
        self.started = 0.0
        self.finished = 0.0
        #: The server's probes; until they are set, times are wall times.
        self.timeline: Optional[Timeline] = None

    def _loop(self, port: int, connection: int, deadline: float) -> None:
        plan = self.plan
        schedule = Schedule(plan, connection)
        conn = Connection(port)
        last_fixed = max(list(plan["coalesce_slots"]) + [plan["digest_slots"]])
        slot = 0
        try:
            while True:
                kind, method, path, body = schedule.request(slot)
                if kind == "coalesced_population":
                    try:
                        self.barrier.wait(timeout=120)
                    except threading.BrokenBarrierError:
                        pass  # the request still goes out, just not paired
                with self.lock:
                    self._open[connection] = body
                    if body is not None and self._open[1 - connection] == body:
                        self.duplicates += 1
                sent = time.perf_counter()
                try:
                    status, data = conn.call(method, path, body)
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                done = time.perf_counter()
                ok = status == 200 and _check(plan, kind, data)
                with self.lock:
                    self._open[connection] = None
                    if ok and body is not None:
                        # Every repeat of a key must be byte-identical.
                        first = self.first.setdefault(body, data)
                        ok = first == data
                        if slot < plan["digest_slots"]:
                            self.digest_keys.add(body)
                    self.records.append((kind, sent, done, ok))
                    total = len(self.records)
                slot += 1
                if (slot > last_fixed and done >= deadline
                        and total >= plan["min_requests"]):
                    return
        finally:
            conn.close()

    def run(self, port: int, seconds: float) -> "Drive":
        self.started = time.perf_counter()
        deadline = self.started + seconds
        errors: List[BaseException] = []

        def target(connection: int) -> None:
            try:
                self._loop(port, connection, deadline)
            except Exception as exc:  # re-raised by the caller below
                errors.append(exc)
                self.barrier.abort()

        threads = [threading.Thread(target=target, args=(c,)) for c in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self.finished = max(done for _, _, done, _ in self.records)
        return self

    # -- summaries ------------------------------------------------------
    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two of the phase's clock readings."""
        if self.timeline is None:
            return end - start
        return self.timeline.seconds(start, end)

    def latencies_ms(self, kind: Optional[str] = None) -> List[float]:
        return sorted(
            self.seconds(sent, done) * 1e3 for k, sent, done, _ in self.records
            if kind is None or k == kind
        )

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, _, ok in self.records if not ok)

    def wall_s(self) -> float:
        """Seconds the phase took per ``min_requests`` replies."""
        return (self.seconds(self.started, self.finished)
                * self.plan["min_requests"] / self.attempted)

    def req_per_s(self) -> float:
        return self.attempted / self.seconds(self.started, self.finished)

    def class_p50_ms(self, kind: str) -> float:
        values = self.latencies_ms(kind)
        return statistics.median(values) if values else 0.0

    def digest(self) -> str:
        digest = hashlib.sha256()
        for key in sorted(self.digest_keys):
            digest.update(key)
            digest.update(hashlib.sha256(self.first[key]).digest())
        return digest.hexdigest()


# ----------------------------------------------------------------------
# sub-commands run in their own processes
# ----------------------------------------------------------------------
def seed_store(spec_path: str) -> int:
    """Fill a store with the hot populations and the pre-seeded simulations."""
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    plan = spec["plan"]
    from repro.engine import configure_engine
    from repro.experiments import ExperimentSettings
    from repro.serve.protocol import policy_by_name

    engine = configure_engine(workers=1, cache_dir=spec["store"])
    for seed, policy in plan["hot"]:
        engine.population(
            ExperimentSettings(seed=seed, chips=plan["chips"]),
            policy_by_name(policy),
        )
    settings = ExperimentSettings(
        seed=plan["sim_seed"], chips=plan["chips"],
        trace_length=plan["trace_length"], warmup=plan["warmup"],
    )
    engine.simulate_many(settings, [
        (name, None if cycles is None else tuple(cycles), None)
        for name, cycles in plan["preseeded"]
    ])
    return 0


def launch(out_path: str, spans_path: str, traced: bool) -> int:
    """The server: gauge and wrappers first, then ``run_server`` until SIGTERM."""
    gauge = Gauge().start()
    recorder = None
    if traced:
        import tracer

        recorder = tracer.Recorder(run_id=f"serve-mix:{out_path}")
        tracer.install(recorder, tracer.BATCH_TARGETS + tracer.SERVE_TARGETS)
    from repro.engine import configure_engine
    from repro.serve.server import ServeConfig, run_server
    from repro.workloads import trace_cache_info

    def announce(server) -> None:
        print(f"repro serve listening on http://{server.host}:{server.port}",
              flush=True)

    engine = configure_engine(workers=1)
    run_server(ServeConfig(host="127.0.0.1", port=0), engine=engine,
               announce=announce)
    out: Dict[str, object] = {"samples": gauge.stop()}
    if recorder is not None:
        info = trace_cache_info()
        out.update(layers=recorder.totals(),
                   trace_cache={"hits": info["hits"], "misses": info["misses"]})
        recorder.dump(spans_path)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "seed":
        sys.exit(seed_store(sys.argv[2]))
    sys.exit(launch(sys.argv[2], sys.argv[3], sys.argv[4] == "1"))
