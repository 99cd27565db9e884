"""End-to-end tests: a live server over a real socket.

A :class:`ServerThread` hosts the service on an ephemeral port with its
own engine (scratch store), and stdlib clients talk to it exactly the
way CI and external callers do. The tier-1 claims of the serve layer are
asserted here:

* N concurrent identical cold queries cost exactly one pool dispatch
  (``stage.population`` histogram count), with the surplus accounted for
  by coalesce-joins or warm hits;
* a repeat query after completion costs zero dispatches and returns a
  payload **bit-identical** to encoding the direct engine result;
* overload yields clean 429/503 responses, never a crashed server;
* progress streams deliver accepted → progress → result;
* SIGTERM on a live ``repro serve`` process drains in-flight work
  before exiting 0;
* a client that trickles its headers or stalls its body loses the
  connection within ``keepalive_timeout``, and more than 100 header
  lines are refused with 400;
* a connection past the open-connection limit gets one 503 and is
  closed, and a slot freed by a closing client is reused;
* only cold simulations go through the batcher, and an estimate whose
  sample cap leaves no room past its pilot is refused with 400;
* simulations that arrive while a dispatch of their settings identity
  runs share the one dispatch after it; a failing dispatch fails only
  its own waiters, and the batch queued behind it still runs; a drain
  lets a queued batch and a mid-progress stream finish before the
  server's pool stops; a queued simulation whose client resets still
  runs and is stored;
* identical streaming requests share one cold flight, and a stream
  whose client resets while queued gives its slot back when its flight
  settles;
* a way configuration, latency or chip count the engine would refuse
  gets 400 before admission, and leaves a batch-mate's 200 alone;
* ``/metrics`` holds the engine registry and the rollup, nothing else,
  and its text form shows each yield gauge once.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from exposition import parse_exposition
from repro.engine.store import canonical_json
from repro.engine.core import Engine, EngineConfig
from repro.experiments.common import ExperimentSettings
from repro.obs.promtext import metric_name
from repro.obs.trace import configure_tracing, disable_tracing
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live server plus its engine; one per module, scratch store."""
    engine = Engine(
        EngineConfig(
            workers=1, cache_dir=tmp_path_factory.mktemp("serve-store")
        )
    )
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    yield engine, host, port
    thread.stop()


def _counters(engine):
    return engine.metrics.snapshot()["counters"]


def _dispatches(engine) -> int:
    histograms = engine.metrics.snapshot()["histograms"]
    stage = histograms.get("stage.population")
    return int(stage["count"]) if stage else 0


# ----------------------------------------------------------------------
# basic surface
# ----------------------------------------------------------------------
def test_healthz_reports_engine_and_admission(served):
    engine, host, port = served
    with ServeClient(host, port) as client:
        health = client.healthz()
    assert health["status"] == "ok"
    assert health["engine"]["workers"] == 1
    assert health["admission"]["max_active"] == 8
    assert "store" in health


def test_metrics_serves_registry_snapshot(served):
    engine, host, port = served
    with ServeClient(host, port) as client:
        client.population(seed=11, chips=20)
        metrics = client.metrics()
    assert "serve.requests" in metrics["engine"]["counters"]
    assert metrics["engine"]["gauges"]["serve.draining"] == 0.0
    # The rolling-window view rides along in the JSON representation.
    rollup = metrics["rollup"]
    assert rollup["window_seconds"] > 0
    assert rollup["total"]["count"] >= 1
    assert "/v1/population" in rollup["endpoints"]


def test_metrics_serve_one_registry_and_its_yield_gauges(tmp_path):
    """After a population, a simulation and an experiment, /metrics
    holds the engine registry and the rollup and nothing else, and the
    text form shows each yield gauge once, with the engine's value."""
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    try:
        with ServeClient(host, port) as client:
            client.population(seed=12, chips=20)
            client.simulate("gzip", seed=12, trace_length=300, warmup=100)
            client.experiment("table2", seed=12, chips=40)
            metrics = client.metrics()
            text = client.metrics_text()
    finally:
        thread.stop()
    assert sorted(metrics) == ["engine", "rollup"]
    published = {
        name: value
        for name, value in engine.metrics.snapshot()["gauges"].items()
        if name.startswith("yield.")
    }
    assert "yield.estimate.regular.base" in published
    assert {
        name for name in metrics["engine"]["gauges"]
        if name.startswith("yield.")
    } == set(published)
    families = parse_exposition(text)
    exposed = {
        name: family for name, family in families.items()
        if name.startswith("repro_yield_")
    }
    assert set(exposed) == {metric_name(name) for name in published}
    for name, value in published.items():
        flat = metric_name(name)
        assert text.count(f"# TYPE {flat} gauge\n") == 1
        assert exposed[flat]["samples"] == [(flat, {}, value)]
    assert not [
        line for line in text.splitlines()
        if line.startswith("# HELP") and "process" in line
    ]


def test_experiment_computes_on_the_served_engine():
    """``POST /v1/experiment`` runs on the engine the server was built
    with, so the experiment's population job and its yield gauges reach
    that server's ``/metrics``."""
    from repro.yieldmodel.analysis import forget_live_chips

    # Chips another test's engine still holds would spare the job.
    forget_live_chips()
    engine = Engine(EngineConfig(persistent=False))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    try:
        with ServeClient(host, port) as client:
            client.experiment("table2", seed=12, chips=40)
            served = client.metrics()["engine"]
    finally:
        thread.stop()
    assert served["counters"]["experiment.runs.table2"] == 1
    assert served["counters"]["engine.jobs.run"] >= 1
    assert "yield.estimate.regular.base" in served["gauges"]


def test_unknown_endpoint_404_wrong_method_405(served):
    engine, host, port = served
    with ServeClient(host, port) as client:
        with pytest.raises(ServeError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404
        with pytest.raises(ServeError) as info:
            client._request("GET", "/v1/population")
        assert info.value.status == 405

        with pytest.raises(ServeError) as info:
            client._request("POST", "/v1/population", {"policy": "bogus"})
        assert info.value.status == 400


# ----------------------------------------------------------------------
# coalescing: N concurrent identical queries, one dispatch
# ----------------------------------------------------------------------
def test_concurrent_identical_queries_one_dispatch(served):
    engine, host, port = served
    body = {"seed": 21, "chips": 2000, "detail": "summary"}
    n = 6
    before_dispatches = _dispatches(engine)
    before = _counters(engine)

    results, errors = [None] * n, []
    barrier = threading.Barrier(n)

    def query(i):
        try:
            barrier.wait()
            with ServeClient(host, port, client_id=f"client-{i}") as client:
                results[i] = client._request("POST", "/v1/population", body)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    threads = [threading.Thread(target=query, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    assert not errors
    assert all(r == results[0] for r in results)
    # The heart of the PR: six requests, one pool dispatch.
    assert _dispatches(engine) - before_dispatches == 1
    after = _counters(engine)

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta("serve.coalesce.leader") == 1
    # Everyone else either joined the flight or arrived after it settled
    # (a warm store hit) — both cost zero dispatches.
    assert delta("serve.coalesce.joined") + delta("serve.request.warm") == n - 1


def test_warm_repeat_zero_dispatch_bit_identical(served):
    engine, host, port = served
    body = {"seed": 33, "chips": 40, "detail": "full"}

    def raw_query():
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request(
                "POST", "/v1/population", body=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = response.read()
            assert response.status == 200
            return payload
        finally:
            conn.close()

    first = raw_query()
    before = _dispatches(engine)
    repeat = raw_query()
    # Byte-for-byte identical, and nothing recomputed.
    assert repeat == first
    assert _dispatches(engine) - before == 0

    # And identical to encoding the direct engine result ourselves.
    from repro.engine.codec import decode_population, encode_population

    result = engine.population(ExperimentSettings(seed=33, chips=40))
    expected = canonical_json(
        {"kind": "population", "detail": "full",
         "result": encode_population(result)}
    ).encode("utf-8")
    assert first == expected

    # The embedded store payload decodes to the engine's very columns.
    decoded = decode_population(json.loads(first)["result"])
    for horizontal in (False, True):
        served_columns = decoded.chips(horizontal).circuits
        engine_columns = result.chips(horizontal).circuits
        assert served_columns.chip_ids == engine_columns.chip_ids
        assert served_columns.hyapd == engine_columns.hyapd
        for name in ("band_delays", "band_leakage", "peripheral_leakage"):
            assert getattr(served_columns, name).tobytes() == \
                getattr(engine_columns, name).tobytes(), name


def _hold_first_dispatches(monkeypatch, engine, failing_seed=None):
    """Patch ``engine.simulate_many`` so the first dispatch of each
    settings identity runs until the returned event is set; every
    dispatch of ``failing_seed`` then raises."""
    simulate_many, release = engine.simulate_many, threading.Event()
    held, lock = set(), threading.Lock()

    def held_first(settings, specs, progress=None):
        identity = (settings.seed, settings.trace_length, settings.warmup)
        with lock:
            first = identity not in held
            held.add(identity)
        if first:
            release.wait(30)
        if settings.seed == failing_seed:
            raise RuntimeError("simulation backend failed")
        return simulate_many(settings, specs, progress=progress)

    monkeypatch.setattr(engine, "simulate_many", held_first)
    return release


def _batch_counts(engine, before):
    """(dispatches, jobs) of the batcher since the ``before`` counters."""
    after = _counters(engine)
    return tuple(
        after.get(name, 0) - before.get(name, 0)
        for name in ("serve.batch.dispatches", "serve.batch.jobs")
    )


def _until(condition, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def _wait_batch_pending(host, port, count: int) -> None:
    with ServeClient(host, port, client_id="probe") as probe:
        _until(lambda: probe.healthz()["batch_pending"] >= count,
               f"batch_pending never reached {count}")


def test_simulations_batch_into_shared_dispatch(served, monkeypatch):
    """Cold simulations that arrive while a dispatch of their settings
    identity runs all go out in the one dispatch after it."""
    engine, host, port = served
    release = _hold_first_dispatches(monkeypatch, engine)
    benchmarks = ["gzip", "mcf", "swim"]
    before = _counters(engine)
    results, errors = {}, []

    def query(benchmark):
        try:
            with ServeClient(host, port) as client:
                results[benchmark] = client.simulate(
                    benchmark, seed=44, trace_length=3000, warmup=300
                )
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=query, args=("art",))]
    try:
        threads[0].start()
        _until(lambda: _batch_counts(engine, before)[0] == 1,
               "the first simulation was never dispatched")
        threads += [
            threading.Thread(target=query, args=(b,)) for b in benchmarks
        ]
        for t in threads[1:]:
            t.start()
        _wait_batch_pending(host, port, 1 + len(benchmarks))
    finally:
        release.set()
        for t in threads:
            t.join(timeout=60)

    assert not errors
    assert set(results) == {"art", *benchmarks}
    assert all(r["kind"] == "simulation" for r in results.values())
    # The held dispatch, then one for everything queued behind it.
    assert _batch_counts(engine, before) == (2, 1 + len(benchmarks))


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
def test_population_stream_events(served):
    engine, host, port = served
    with ServeClient(host, port) as client:
        events = list(client.population_stream(seed=55, chips=500))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "accepted"
    assert kinds[-1] == "result"
    assert events[0]["key"]
    result = events[-1]["payload"]
    assert result["kind"] == "population"
    # A warm repeat still streams, with the same payload.
    with ServeClient(host, port) as client:
        warm = list(client.population_stream(seed=55, chips=500))
    assert warm[-1]["payload"] == result


# ----------------------------------------------------------------------
# admission control under overload
# ----------------------------------------------------------------------
def test_overload_yields_429_and_503(tmp_path):
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(
        engine,
        ServeConfig(port=0, max_active=1, max_queued=2, max_per_client=1),
    )
    host, port = thread.start()
    try:
        statuses = {}
        occupier_done = threading.Event()

        def occupy():
            # A slow cold query that pins the single compute slot.
            with ServeClient(host, port, client_id="occupier") as client:
                client.population(seed=71, chips=4000)
            occupier_done.set()

        occupier = threading.Thread(target=occupy)
        occupier.start()
        # Wait until the slot is actually held.
        deadline = time.time() + 10
        with ServeClient(host, port, client_id="probe") as probe:
            while time.time() < deadline:
                if probe.healthz()["admission"]["active"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("occupier never acquired the compute slot")

        def cold_query(client_id, seed, bucket):
            try:
                with ServeClient(host, port, client_id=client_id) as client:
                    client.population(seed=seed, chips=1500)
                statuses[bucket] = 200
            except ServeError as exc:
                statuses[bucket] = exc.status

        # Client "greedy" queues one (fills its per-client bound)...
        q1 = threading.Thread(
            target=cold_query, args=("greedy", 72, "queued")
        )
        q1.start()
        deadline = time.time() + 10
        with ServeClient(host, port, client_id="probe") as probe:
            while time.time() < deadline:
                if probe.healthz()["admission"]["queued"] >= 1:
                    break
                time.sleep(0.01)

        # ...its second is told to back off.
        cold_query("greedy", 73, "greedy-second")
        assert statuses["greedy-second"] == 429

        # Fill the global queue, then the next client sees 503.
        q2 = threading.Thread(
            target=cold_query, args=("other", 74, "queued2")
        )
        q2.start()
        deadline = time.time() + 10
        with ServeClient(host, port, client_id="probe") as probe:
            while time.time() < deadline:
                if probe.healthz()["admission"]["queued"] >= 2:
                    break
                time.sleep(0.01)
        cold_query("third", 75, "overflow")
        assert statuses["overflow"] == 503

        occupier.join(timeout=60)
        q1.join(timeout=60)
        q2.join(timeout=60)
        assert occupier_done.is_set()
        # The queued requests eventually ran to completion.
        assert statuses["queued"] == 200
        assert statuses["queued2"] == 200
        # And the server is still healthy afterwards.
        with ServeClient(host, port) as client:
            assert client.healthz()["status"] == "ok"
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# SIGTERM drain on the real CLI process
# ----------------------------------------------------------------------
def test_sigterm_drains_inflight_work(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=SRC,
        REPRO_CACHE_DIR=str(tmp_path / "store"),
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no listen announcement in {line!r}"
        host, port = match.group(1), int(match.group(2))

        outcome = {}

        def slow_query():
            try:
                with ServeClient(host, port, timeout=60) as client:
                    outcome["result"] = client.population(seed=91, chips=4000)
            except Exception as exc:  # noqa: BLE001
                outcome["error"] = exc

        worker = threading.Thread(target=slow_query)
        worker.start()
        # Wait for the job to be admitted, then pull the plug.
        deadline = time.time() + 15
        admitted = False
        while time.time() < deadline and not admitted:
            try:
                with ServeClient(host, port, timeout=5) as probe:
                    admitted = probe.healthz()["admission"]["active"] >= 1
            except Exception:  # noqa: BLE001 - server still starting
                pass
            time.sleep(0.01)
        assert admitted, "in-flight job never showed up in /healthz"
        proc.send_signal(signal.SIGTERM)

        worker.join(timeout=60)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained" in out
        # The in-flight query finished despite the shutdown.
        assert "result" in outcome, outcome.get("error")
        assert outcome["result"]["kind"] == "population"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# ----------------------------------------------------------------------
# live observability surface
# ----------------------------------------------------------------------
def test_healthz_exposes_live_detail(served):
    engine, host, port = served
    with ServeClient(host, port) as client:
        client.population(seed=12, chips=20)
        health = client.healthz()
    assert health["uptime_seconds"] >= 0
    assert "entries" in health["store"] or health["store"]
    assert "compiled_traces" in health
    requests = health["requests"]
    assert requests["total"] >= requests["warm"] + requests["cold"]
    assert requests["windowed"] >= 1
    assert health["flights"] == 0


def test_request_id_propagates_to_spans_and_debug_ring(served, tmp_path):
    engine, host, port = served
    trace_file = tmp_path / "serve-trace.jsonl"
    configure_tracing(trace_file)
    try:
        with ServeClient(host, port) as client:
            client.population(seed=13, chips=20)
            request_id = client.last_request_id
            ring = client.debug_traces()
    finally:
        disable_tracing()

    assert request_id and len(request_id) == 16

    # The bounded in-memory ring retains the request with its id.
    assert ring["capacity"] >= 1
    ring_ids = [span["request_id"] for span in ring["spans"]]
    assert request_id in ring_ids
    matching = [
        s for s in ring["spans"] if s["request_id"] == request_id
    ][0]
    assert matching["name"] == "serve.request"
    assert matching["attrs"]["path"] == "/v1/population"
    assert matching["attrs"]["status"] == 200

    # And the real tracer recorded a serve.request span carrying the
    # same id, so JSONL traces correlate with response headers.
    spans = [
        json.loads(line)
        for line in trace_file.read_text(encoding="utf-8").splitlines()
    ]
    serve_spans = [s for s in spans if s["name"] == "serve.request"]
    assert any(
        s["attrs"].get("request_id") == request_id for s in serve_spans
    )


def test_dashboard_served_self_contained(served):
    engine, host, port = served
    with ServeClient(host, port) as client:
        client.population(seed=14, chips=20)
        page = client.dashboard()
    assert page.lstrip().startswith("<!DOCTYPE html>")
    assert "http://" not in page and "https://" not in page
    assert "src=" not in page and "<link" not in page
    for anchor in ("spark-rate", "lat-p95", "q-active", "ep-rows"):
        assert f'id="{anchor}"' in page


def test_request_log_written_as_jsonl(tmp_path):
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    log_path = tmp_path / "requests.jsonl"
    thread = ServerThread(
        engine, ServeConfig(port=0, request_log=str(log_path))
    )
    host, port = thread.start()
    try:
        with ServeClient(host, port) as client:
            client.population(seed=15, chips=20)
            client.healthz()
            request_id = client.last_request_id
    finally:
        thread.stop()
    entries = [
        json.loads(line)
        for line in log_path.read_text(encoding="utf-8").splitlines()
    ]
    assert len(entries) >= 2
    by_id = {entry["request_id"]: entry for entry in entries}
    assert request_id in by_id
    health_entry = by_id[request_id]
    assert health_entry["path"] == "/healthz"
    assert health_entry["status"] == 200
    assert health_entry["seconds"] >= 0


def test_first_scrape_reads_resources_with_no_thread(tmp_path):
    # Other servers (the module fixture) may be live at the same time;
    # only the threads born with THIS server are checked.
    before = {t.ident for t in threading.enumerate()}
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    try:
        with ServeClient(host, port) as client:
            gauges = client.metrics()["engine"]["gauges"]  # no waiting
            client.population(seed=16, chips=20)  # cold: runs on the pool
            born = [
                t for t in threading.enumerate() if t.ident not in before
            ]
    finally:
        thread.stop()
    if os.path.exists("/proc/self/status"):
        assert gauges["proc.rss_bytes"] > 0
        assert gauges["proc.rss_peak_bytes"] >= gauges["proc.rss_bytes"]
    assert gauges["proc.cpu_user_seconds"] > 0
    assert gauges["serve.uptime_seconds"] >= 0
    names = sorted(t.name for t in born)
    assert thread._thread in born, names
    assert all(
        t is thread._thread or t.name.startswith("repro-serve-pool")
        for t in born
    ), names
    assert not any(t.is_alive() for t in born), names


def test_burst_exposes_consistent_prometheus_metrics(tmp_path):
    """The acceptance scenario: mixed warm/cold burst with one overloaded
    client, then /metrics (text) and /dashboard tell a consistent story."""
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(
        engine,
        ServeConfig(port=0, max_active=1, max_queued=2, max_per_client=1),
    )
    host, port = thread.start()
    try:
        statuses = []

        # Cold then warm: same query twice, then a distinct cold query.
        with ServeClient(host, port, client_id="mixed") as client:
            client.population(seed=81, chips=30)
            client.population(seed=81, chips=30)  # warm repeat
            client.population(seed=82, chips=30)  # second cold

        # One overloaded client: a slow cold query pins the slot, its
        # second and third requests hit the per-client bound.
        def occupy():
            with ServeClient(host, port, client_id="greedy") as client:
                client.population(seed=83, chips=4000)

        occupier = threading.Thread(target=occupy)
        occupier.start()
        deadline = time.time() + 10
        with ServeClient(host, port, client_id="probe") as probe:
            while time.time() < deadline:
                if probe.healthz()["admission"]["active"] >= 1:
                    break
                time.sleep(0.01)

        def crowd(bucket):
            try:
                with ServeClient(host, port, client_id="greedy") as client:
                    client.population(seed=84 + bucket, chips=1500)
                statuses.append(200)
            except ServeError as exc:
                statuses.append(exc.status)

        crowders = [
            threading.Thread(target=crowd, args=(i,)) for i in range(2)
        ]
        for t in crowders:
            t.start()
        for t in crowders:
            t.join(timeout=60)
        occupier.join(timeout=60)
        assert 429 in statuses  # the overloaded client was pushed back

        with ServeClient(host, port) as client:
            text = client.metrics_text()
            page = client.dashboard()

        families = parse_exposition(text)

        # Per-endpoint latency quantiles for the scripted endpoint.
        latency = families["repro_serve_latency_seconds"]
        assert latency["type"] == "summary"
        quantiles = {
            labels["quantile"]
            for name, labels, _ in latency["samples"]
            if labels.get("endpoint") == "/v1/population"
            and "quantile" in labels
        }
        assert quantiles == {"0.5", "0.95", "0.99"}

        # Queue-depth and in-flight gauges exist and read idle now.
        for family in ("repro_serve_active", "repro_serve_queued",
                       "repro_serve_flights"):
            assert families[family]["type"] == "gauge"
            assert families[family]["samples"][0][2] == 0.0

        # Window counts consistent with the scripted traffic: every
        # /v1/population request of the burst (successes + pushbacks)
        # landed in the rolling window.
        window = {
            labels["endpoint"]: value
            for _, labels, value in
            families["repro_serve_window_requests"]["samples"]
        }
        assert window["/v1/population"] == 4 + len(statuses)
        responses = {
            (labels["endpoint"], labels["class"]): value
            for _, labels, value in
            families["repro_serve_window_responses"]["samples"]
        }
        assert responses[("/v1/population", "4xx")] == statuses.count(429)

        # Dispositions: the warm repeat shows up as a warm hit.
        dispositions = {
            (labels["endpoint"], labels["kind"]): value
            for _, labels, value in
            families["repro_serve_window_disposition"]["samples"]
        }
        assert dispositions[("/v1/population", "warm")] >= 1
        assert dispositions[("/v1/population", "cold")] >= 2

        # Lifetime counters agree with the warm/cold split.
        assert families["repro_serve_request_warm_total"]["samples"][0][2] >= 1

        # And the dashboard renders the same data self-contained.
        assert page.lstrip().startswith("<!DOCTYPE html>")
        assert "http://" not in page and "https://" not in page
        assert "/v1/population" in page
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# slow and oversized clients
# ----------------------------------------------------------------------
#: Keep-alive timeout of the slow-client server: short, so that a
#: trickling client is cut off quickly.
_SLOW_TIMEOUT = 0.5
#: Longest any slow-client test waits for the server; far above
#: _SLOW_TIMEOUT, so that a server that never times out fails the test
#: instead of hanging it.
_GIVE_UP = 4.0


@pytest.fixture(scope="module")
def strict(tmp_path_factory):
    engine = Engine(
        EngineConfig(workers=1, cache_dir=tmp_path_factory.mktemp("strict"))
    )
    thread = ServerThread(
        engine, ServeConfig(port=0, keepalive_timeout=_SLOW_TIMEOUT)
    )
    host, port = thread.start()
    yield host, port
    thread.stop()


def _closed_by_server(sock: socket.socket) -> bool:
    """True once the server has closed its end (reads hit EOF)."""
    sock.settimeout(0.05)
    try:
        return sock.recv(1024) == b""
    except socket.timeout:
        return False
    except ConnectionError:
        return True


def _read_response(sock: socket.socket) -> bytes:
    sock.settimeout(_GIVE_UP)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        if not chunk:
            break
        data += chunk
    return data


def test_trickled_headers_are_cut_off(strict):
    host, port = strict
    with socket.create_connection((host, port), timeout=_GIVE_UP) as sock:
        start = time.monotonic()
        sock.sendall(b"GET /healthz HTTP/1.1\r\n")
        closed = False
        line = 0
        while time.monotonic() - start < _GIVE_UP:
            try:
                sock.sendall(f"x-trickle-{line % 50}: 1\r\n".encode())
            except ConnectionError:
                closed = True
                break
            line += 1
            if _closed_by_server(sock):
                closed = True
                break
        elapsed = time.monotonic() - start
    assert closed, "server kept a trickling client past its timeout"
    assert elapsed < _SLOW_TIMEOUT + 1.5


def test_stalled_body_is_cut_off(strict):
    host, port = strict
    with socket.create_connection((host, port), timeout=_GIVE_UP) as sock:
        start = time.monotonic()
        sock.sendall(
            b"POST /v1/population HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n"
            b'{"seed": 1'
        )
        sock.settimeout(_GIVE_UP)
        try:
            data = sock.recv(4096)
        except socket.timeout:
            data = None
        except ConnectionError:
            data = b""
        elapsed = time.monotonic() - start
    assert data == b"", "server waited on a stalled body past its timeout"
    assert elapsed < _SLOW_TIMEOUT + 1.5


@pytest.mark.parametrize("count,status", [(100, b"200"), (101, b"400")])
def test_header_line_limit(strict, count, status):
    host, port = strict
    headers = "".join(f"x-h{i}: {i}\r\n" for i in range(count))
    request = f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()
    with socket.create_connection((host, port), timeout=_GIVE_UP) as sock:
        sock.sendall(request)
        response = _read_response(sock)
    assert response.split(b" ", 2)[1] == status, response[:200]


def test_keep_alive_sequence_unaffected(strict):
    host, port = strict
    conn = http.client.HTTPConnection(host, port, timeout=_GIVE_UP)
    try:
        for _ in range(5):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            json.loads(response.read())
            sock = conn.sock
            # Idle for less than the timeout between requests: the
            # same connection serves the next one.
            time.sleep(_SLOW_TIMEOUT / 5)
            assert conn.sock is sock
        body = json.dumps({"seed": 3, "chips": 16}).encode()
        conn.request(
            "POST", "/v1/population", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["population"] == 16
    finally:
        conn.close()


# ----------------------------------------------------------------------
# open-connection limit
# ----------------------------------------------------------------------
def _connections_gauge(host, port) -> float:
    """``serve.connections`` as a fresh, closing scrape reads it."""
    conn = http.client.HTTPConnection(host, port, timeout=_GIVE_UP)
    try:
        conn.request("GET", "/metrics", headers={"Connection": "close"})
        response = conn.getresponse()
        assert response.status == 200
        families = parse_exposition(response.read().decode("utf-8"))
    finally:
        conn.close()
    return families["repro_serve_connections"]["samples"][0][2]


def _healthz_on(conn: http.client.HTTPConnection) -> None:
    conn.request("GET", "/healthz")
    response = conn.getresponse()
    assert response.status == 200
    json.loads(response.read())


def test_connections_past_the_limit_get_503(tmp_path, monkeypatch):
    import repro.serve.server as server_module

    monkeypatch.setattr(server_module, "_MAX_CONNECTIONS", 3)
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    held = [
        http.client.HTTPConnection(host, port, timeout=_GIVE_UP)
        for _ in range(3)
    ]
    try:
        # Three keep-alive connections are served, twice each.
        for _ in range(2):
            for conn in held:
                _healthz_on(conn)
        # A fourth is told 503 without asking, then closed.
        with socket.create_connection((host, port), timeout=_GIVE_UP) as sock:
            sock.settimeout(_GIVE_UP)
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 503"), data[:200]
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == 503
        # Once one closes, a new connection is served.
        held.pop(0).close()
        deadline = time.monotonic() + _GIVE_UP
        while len(thread.server._connections) > 2:
            assert time.monotonic() < deadline, "closed connection kept"
            time.sleep(0.01)
        fresh = http.client.HTTPConnection(host, port, timeout=_GIVE_UP)
        held.append(fresh)
        _healthz_on(fresh)
        counters = _counters(engine)
        assert counters["serve.connections.refused"] == 1
    finally:
        for conn in held:
            conn.close()
    try:
        # With every client gone, the gauge counts only the scrape.
        deadline = time.monotonic() + _GIVE_UP
        while _connections_gauge(host, port) != 1.0:
            assert time.monotonic() < deadline, "connections not released"
            time.sleep(0.01)
        while thread.server._connections:
            assert time.monotonic() < deadline, "scrape not released"
            time.sleep(0.01)
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# request rules: warm simulations, undersized estimates
# ----------------------------------------------------------------------
def test_warm_simulation_skips_the_batcher(tmp_path):
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    body = dict(benchmark="gzip", seed=61, trace_length=1000, warmup=100)
    try:
        with ServeClient(host, port) as client:
            first = client.simulate(**body)  # cold: batched
            before = _counters(engine).get("serve.batch.dispatches", 0)
            for clear_memory in (False, True):  # memo hit, then store read
                if clear_memory:
                    engine.clear_memory()
                start = time.perf_counter()
                repeat = client.simulate(**body)
                elapsed = time.perf_counter() - start
                assert repeat == first
                assert elapsed < 0.25, (clear_memory, elapsed)
        assert _counters(engine).get("serve.batch.dispatches", 0) == before
    finally:
        thread.stop()


def test_undersized_estimate_refused_before_admission(served):
    engine, host, port = served
    before = _counters(engine)
    with ServeClient(host, port) as client:
        for kind in ("stratified", "is"):
            with pytest.raises(ServeError) as info:
                client.estimate(seed=5, chips=200, estimator={"kind": kind})
            assert info.value.status == 400, info.value
            assert "leaves no room" in info.value.body["error"]
    after = _counters(engine)
    for name in ("serve.errors", "serve.request.cold"):
        assert after.get(name, 0) == before.get(name, 0), name


def test_fixed_estimates_with_other_confidence_or_cap_are_not_warm(served):
    """A fixed estimate's confidence and sample cap are part of its key:
    a repeat that changes either is computed, not answered with the
    first request's bounds."""
    from repro.serve.protocol import estimate_payload
    from repro.yieldmodel.constraints import NOMINAL_POLICY
    from repro.yieldmodel.estimators import EstimatorSpec

    engine, host, port = served
    reference = Engine(EngineConfig(workers=1, persistent=False))
    settings = ExperimentSettings(seed=47, chips=300)
    with ServeClient(host, port) as client:
        for first, second in (
            ({"kind": "fixed", "confidence": 0.90},
             {"kind": "fixed", "confidence": 0.99}),
            ({"kind": "fixed"}, {"kind": "fixed", "max_chips": 100}),
        ):
            client.estimate(seed=47, chips=300, estimator=first)
            answer = client.estimate(seed=47, chips=300, estimator=second)
            expected = estimate_payload(reference.estimate(
                settings, NOMINAL_POLICY,
                estimator=EstimatorSpec.from_payload(second),
            ))
            assert answer == json.loads(json.dumps(expected))


# ----------------------------------------------------------------------
# fault battery: failing batches, drain with open work
# ----------------------------------------------------------------------
def _gauges(engine):
    return engine.metrics.snapshot()["gauges"]


def test_failing_batch_fails_only_its_waiters(tmp_path, monkeypatch):
    """Each identity's first dispatch is held while two more simulations
    of the failing identity and one of the good one queue behind it:
    every waiter of a failing dispatch gets the same 500, the batch
    queued behind a failure still gets its own dispatch, and the good
    identity's requests all get 200."""
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    bad_seed, good_seed = 71, 72
    release = _hold_first_dispatches(
        monkeypatch, engine, failing_seed=bad_seed
    )
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    leaders = [(bad_seed, "gzip"), (good_seed, "gzip")]
    queued = [(bad_seed, "mcf"), (bad_seed, "swim"), (good_seed, "mcf")]
    jobs = leaders + queued
    outcomes = {}

    def query(seed, benchmark):
        try:
            with ServeClient(host, port) as client:
                client.simulate(
                    benchmark, seed=seed, trace_length=1000, warmup=100
                )
            outcomes[seed, benchmark] = (200, None)
        except ServeError as exc:
            outcomes[seed, benchmark] = (exc.status, exc.body)

    threads = [threading.Thread(target=query, args=job) for job in jobs]
    try:
        before = _counters(engine)
        for t in threads[:len(leaders)]:
            t.start()
        _until(lambda: _batch_counts(engine, before)[0] == len(leaders),
               "the leading simulations were never dispatched")
        for t in threads[len(leaders):]:
            t.start()
        _wait_batch_pending(host, port, len(jobs))
        release.set()
        for t in threads:
            t.join(timeout=60)
        bad = [outcomes[job] for job in jobs if job[0] == bad_seed]
        good = [outcomes[job] for job in jobs if job[0] == good_seed]
        assert [status for status, _ in bad] == [500, 500, 500]
        assert bad[0][1] == bad[1][1] == bad[2][1]
        assert "simulation backend failed" in bad[0][1]["error"]
        assert good == [(200, None), (200, None)]
        # Per identity: the held dispatch, then one for its queued batch.
        assert _batch_counts(engine, before) == (4, len(jobs))
        with ServeClient(host, port) as client:
            health = client.healthz()
        assert health["flights"] == 0 and health["batch_pending"] == 0
        assert health["admission"]["active"] == 0
        gauges = _gauges(engine)
        for gauge in ("serve.flights", "serve.batch.pending", "serve.active"):
            assert gauges[gauge] == 0.0, gauge
    finally:
        release.set()
        for t in threads:
            if t.is_alive():
                t.join(timeout=60)
        thread.stop()


def _pool_threads():
    return {
        t.ident for t in threading.enumerate()
        if t.name.startswith("repro-serve-pool")
    }


def test_drain_finishes_open_batch_and_stream(tmp_path, monkeypatch):
    before = _pool_threads()
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    # The population pauses after its first shard until the drain is on.
    population, release = engine.population, threading.Event()

    def paused(settings, policy, progress=None, estimator=None):
        def report(done, total):
            progress(done, total)
            if done == 1:
                release.wait(30)

        return population(settings, policy, progress=report,
                          estimator=estimator)

    monkeypatch.setattr(engine, "population", paused)
    # The first simulation's dispatch runs until the drain is on, and a
    # second one queues behind it.
    held = _hold_first_dispatches(monkeypatch, engine)
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    outcome = {}
    progressed = threading.Event()

    def stream():
        events = []
        with ServeClient(host, port, timeout=60) as client:
            for event in client.population_stream(seed=93, chips=2000):
                events.append(event)
                if event["event"] == "progress":
                    progressed.set()
        outcome["stream"] = events

    def simulate(benchmark):
        with ServeClient(host, port, timeout=60) as client:
            outcome[benchmark] = client.simulate(
                benchmark, seed=94, trace_length=1000, warmup=100
            )

    workers = [threading.Thread(target=stream),
               threading.Thread(target=simulate, args=("mcf",)),
               threading.Thread(target=simulate, args=("gzip",))]
    idle = http.client.HTTPConnection(host, port, timeout=_GIVE_UP)
    try:
        _healthz_on(idle)  # a keep-alive connection for after the drain
        counted = _counters(engine)
        workers[0].start()
        workers[1].start()
        assert progressed.wait(30), "the stream never reported progress"
        _until(lambda: _batch_counts(engine, counted)[0] == 1,
               "the first simulation was never dispatched")
        workers[2].start()
        _wait_batch_pending(host, port, 2)
        thread._loop.call_soon_threadsafe(thread.server.request_shutdown)
        deadline = time.monotonic() + 10
        while not thread.server.draining:
            assert time.monotonic() < deadline, "shutdown never started"
            time.sleep(0.01)
        idle.request("POST", "/v1/population",
                     body=json.dumps({"seed": 95, "chips": 16}).encode())
        assert idle.getresponse().status == 503
        assert "stream" not in outcome  # still mid-progress
        assert "mcf" not in outcome and "gzip" not in outcome
        release.set()
        held.set()
        for worker in workers:
            worker.join(timeout=60)
        assert outcome["mcf"]["kind"] == outcome["gzip"]["kind"] == \
            "simulation"
        assert _batch_counts(engine, counted) == (2, 2)
        events = outcome["stream"]
        assert [e["event"] for e in events if e["event"] != "progress"] == [
            "accepted", "result"
        ]
        assert events[-1]["payload"]["kind"] == "population"
    finally:
        release.set()
        held.set()
        idle.close()
        thread.stop()
    assert not thread._thread.is_alive()
    assert _pool_threads() - before == set()
    gauges = _gauges(engine)
    for gauge in ("serve.flights", "serve.batch.pending", "serve.active"):
        assert gauges[gauge] == 0.0, gauge


def test_client_reset_while_queued_behind_a_dispatch(tmp_path, monkeypatch):
    """A cold simulation whose client resets while it is queued behind a
    running dispatch still runs in the next dispatch, and its result is
    stored: the repeat is warm and equals a fresh engine's answer."""
    from repro.serve.protocol import parse_simulation, simulation_payload

    before = _pool_threads()
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    release = _hold_first_dispatches(monkeypatch, engine)
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    leader = dict(benchmark="gzip", seed=96, trace_length=1000, warmup=100)
    queued = dict(leader, benchmark="mcf")
    outcome = {}

    def lead():
        with ServeClient(host, port, timeout=60) as client:
            outcome["leader"] = client.simulate(**leader)

    worker = threading.Thread(target=lead)
    sock = socket.create_connection((host, port), timeout=_GIVE_UP)
    try:
        counted = _counters(engine)
        worker.start()
        _until(lambda: _batch_counts(engine, counted)[0] == 1,
               "the leading simulation was never dispatched")
        body = json.dumps(queued)
        sock.sendall(
            b"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n{body}".encode()
        )
        _wait_batch_pending(host, port, 2)
        # SO_LINGER 0: close with a reset, not a FIN.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        release.set()
        worker.join(timeout=60)
        assert outcome["leader"]["kind"] == "simulation"
        health = _settled(host, port)
        assert health["flights"] == health["batch_pending"] == 0
        assert health["admission"]["active"] == 0
        # The reset request's job ran in the dispatch after the held one.
        assert _batch_counts(engine, counted) == (2, 2)
        warm = _counters(engine).get("serve.request.warm", 0)
        with ServeClient(host, port) as client:
            repeat = client.simulate(**queued)
        assert _counters(engine).get("serve.request.warm", 0) == warm + 1
        query = parse_simulation(queued)
        fresh = Engine(EngineConfig(workers=1, persistent=False))
        expected = simulation_payload(
            fresh.simulate_many(query.settings, [query.spec])[0]
        )
        assert repeat == json.loads(canonical_json(expected))
        gauges = _gauges(engine)
        for gauge in ("serve.flights", "serve.batch.pending", "serve.active"):
            assert gauges[gauge] == 0.0, gauge
    finally:
        release.set()
        sock.close()
        if worker.is_alive():
            worker.join(timeout=60)
        thread.stop()
    assert not thread._thread.is_alive()
    assert _pool_threads() - before == set()


# ----------------------------------------------------------------------
# streaming flights, parameters refused at parse time
# ----------------------------------------------------------------------
def _settled(host, port, timeout: float = 10.0) -> dict:
    """``/healthz`` once no flight, slot or queue entry is left, or at
    ``timeout`` (the caller asserts on what it returns)."""
    deadline = time.monotonic() + timeout
    with ServeClient(host, port) as probe:
        while True:
            health = probe.healthz()
            admission = health["admission"]
            if health["flights"] == admission["active"] == \
                    admission["queued"] == 0 or time.monotonic() > deadline:
                return health
            time.sleep(0.02)


def test_reset_queued_stream_gives_its_slot_back(tmp_path, monkeypatch):
    """A cold stream whose client resets while it waits for admission
    still runs its flight, and the slot comes back when the flight
    settles: the drain does not wait out its timeout."""
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    population, release = engine.population, threading.Event()
    occupier_seed = 81

    def paused(settings, policy, progress=None, estimator=None):
        if settings.seed == occupier_seed:
            release.wait(30)
        return population(settings, policy, progress=progress,
                          estimator=estimator)

    monkeypatch.setattr(engine, "population", paused)
    drain_timeout = 3.0
    thread = ServerThread(engine, ServeConfig(
        port=0, max_active=1, drain_timeout=drain_timeout
    ))
    host, port = thread.start()
    outcome = {}

    def occupy():
        with ServeClient(host, port, client_id="occupier", timeout=60) as c:
            outcome["occupier"] = c.population(seed=occupier_seed, chips=64)

    occupier = threading.Thread(target=occupy)
    try:
        occupier.start()
        _wait_for_admission(host, port, "active")
        body = json.dumps({"seed": 82, "chips": 32, "stream": True})
        sock = socket.create_connection((host, port), timeout=_GIVE_UP)
        sock.sendall(
            b"POST /v1/population HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n{body}".encode()
        )
        _wait_for_admission(host, port, "queued")
        # SO_LINGER 0: close with a reset, not a FIN.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        time.sleep(0.3)  # the server sees the reset before the grant
        release.set()
        occupier.join(timeout=60)
        assert outcome["occupier"]["kind"] == "population"
        health = _settled(host, port)
        assert health["admission"]["active"] == 0
        assert health["admission"]["queued"] == 0
        assert health["flights"] == 0
        started = time.monotonic()
        thread.stop()
        assert time.monotonic() - started < drain_timeout
        assert not thread._thread.is_alive()
        assert _counters(engine).get("serve.drain.timeout", 0) == 0
    finally:
        release.set()
        thread.stop()


def _wait_for_admission(host, port, field: str) -> None:
    deadline = time.monotonic() + 10
    with ServeClient(host, port, client_id="probe") as probe:
        while probe.healthz()["admission"][field] < 1:
            assert time.monotonic() < deadline, f"admission {field} stayed 0"
            time.sleep(0.01)


def test_identical_streams_share_one_cold_flight(tmp_path):
    """Six identical streaming populations that reach the server in one
    event-loop turn: one cold request leads the flight, five join it."""
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    body = json.dumps({"seed": 502, "chips": 64, "stream": True}).encode()
    held, sent = threading.Event(), threading.Event()

    def hold():
        held.set()
        sent.wait(10)

    conns = [
        http.client.HTTPConnection(host, port, timeout=60) for _ in range(6)
    ]
    try:
        # Hold the server's loop while all six requests go out, so it
        # reads them together.
        thread._loop.call_soon_threadsafe(hold)
        assert held.wait(10)
        for conn in conns:
            conn.request("POST", "/v1/population", body=body)
        time.sleep(0.1)
        sent.set()
        finals = []
        for conn in conns:
            response = conn.getresponse()
            assert response.status == 200
            events = [
                json.loads(line)
                for line in response.read().splitlines() if line.strip()
            ]
            assert events[0]["event"] == "accepted"
            finals.append(events[-1])
        counters = _counters(engine)
        assert counters.get("serve.request.cold", 0) == 1
        assert counters["serve.coalesce.leader"] == 1
        assert counters["serve.coalesce.joined"] == 5
        assert finals[0]["event"] == "result"
        assert all(final == finals[0] for final in finals)
        assert _settled(host, port)["admission"]["active"] == 0
    finally:
        sent.set()
        for conn in conns:
            conn.close()
        thread.stop()


def test_parameters_the_engine_refuses_get_400(tmp_path):
    """A bad way configuration and a one-chip population are refused by
    the parser, before admission: a valid simulation sent with it still
    gets 200, and ``serve.errors`` does not move."""
    engine = Engine(EngineConfig(workers=1, cache_dir=tmp_path / "store"))
    thread = ServerThread(engine, ServeConfig(port=0))
    host, port = thread.start()
    outcomes = {}
    barrier = threading.Barrier(2)

    def query(way_cycles):
        barrier.wait()
        try:
            with ServeClient(host, port) as client:
                client.simulate(
                    "gzip", seed=9, trace_length=1000, warmup=100,
                    way_cycles=way_cycles,
                )
            outcomes[tuple(way_cycles)] = 200
        except ServeError as exc:
            outcomes[tuple(way_cycles)] = exc.status

    try:
        threads = [
            threading.Thread(target=query, args=(cycles,))
            for cycles in ([4, 4, 4, 5], [0, 4, 4, 4])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert outcomes == {(4, 4, 4, 5): 200, (0, 4, 4, 4): 400}
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError) as info:
                client.population(seed=9, chips=1)
            assert info.value.status == 400, info.value
            assert "two chips" in info.value.body["error"]
        counters = _counters(engine)
        assert counters.get("serve.errors", 0) == 0
        assert counters.get("serve.request.cold", 0) == 1
    finally:
        thread.stop()
