"""Unit tests for the serve building blocks (no sockets).

Admission control, coalescing, batching, routing and the wire protocol
are each exercised in isolation here; the live-server end-to-end path is
in ``test_serve.py``.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.experiments import ExperimentSettings
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionController, RejectedError
from repro.serve.batcher import SimulationBatcher
from repro.serve.coalescer import Coalescer
from repro.serve.protocol import (
    ProtocolError,
    parse_estimate,
    parse_experiment,
    parse_population,
    parse_simulation,
    population_payload,
)
from repro.serve.router import RouteError, Router
from repro.yieldmodel.classify import loss_counts
from repro.yieldmodel.statistics import wilson_interval


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_fast_path_under_capacity(self):
        async def scenario():
            registry = MetricsRegistry()
            ctl = AdmissionController(max_active=2, registry=registry)
            await ctl.acquire("a")
            await ctl.acquire("b")
            assert ctl.active == 2 and ctl.queued == 0
            ctl.release()
            assert ctl.active == 1
            snap = registry.snapshot()
            assert snap["counters"]["serve.admit.accepted"] == 2

        run(scenario())

    def test_global_queue_full_is_503(self):
        async def scenario():
            ctl = AdmissionController(max_active=1, max_queued=1)
            await ctl.acquire("a")
            waiting = asyncio.ensure_future(ctl.acquire("b"))
            await asyncio.sleep(0)
            with pytest.raises(RejectedError) as info:
                await ctl.acquire("c")
            assert info.value.status == 503
            waiting.cancel()
            try:
                await waiting
            except asyncio.CancelledError:
                pass

        run(scenario())

    def test_per_client_bound_is_429(self):
        async def scenario():
            ctl = AdmissionController(
                max_active=1, max_queued=10, max_per_client=1
            )
            await ctl.acquire("a")
            waiting = asyncio.ensure_future(ctl.acquire("greedy"))
            await asyncio.sleep(0)
            with pytest.raises(RejectedError) as info:
                await ctl.acquire("greedy")
            assert info.value.status == 429
            # Another client still queues fine.
            other = asyncio.ensure_future(ctl.acquire("polite"))
            await asyncio.sleep(0)
            assert ctl.queued == 2
            for task in (waiting, other):
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass

        run(scenario())

    def test_round_robin_across_clients(self):
        async def scenario():
            ctl = AdmissionController(max_active=1, max_queued=10)
            await ctl.acquire("seed")
            order = []

            async def wait(client, tag):
                await ctl.acquire(client)
                order.append(tag)

            # Client a floods first; b arrives later but must not starve.
            tasks = [
                asyncio.ensure_future(wait("a", "a1")),
                asyncio.ensure_future(wait("a", "a2")),
                asyncio.ensure_future(wait("b", "b1")),
            ]
            await asyncio.sleep(0)
            for _ in range(3):
                ctl.release()
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
            assert order == ["a1", "b1", "a2"]

        run(scenario())

    def test_cancelled_waiter_withdraws(self):
        async def scenario():
            ctl = AdmissionController(max_active=1, max_queued=10)
            await ctl.acquire("a")
            waiting = asyncio.ensure_future(ctl.acquire("b"))
            await asyncio.sleep(0)
            assert ctl.queued == 1
            waiting.cancel()
            try:
                await waiting
            except asyncio.CancelledError:
                pass
            assert ctl.queued == 0
            # The slot still hands over cleanly afterwards.
            ctl.release()
            assert ctl.active == 0

        run(scenario())


# ----------------------------------------------------------------------
# coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_concurrent_identical_jobs_compute_once(self):
        async def scenario():
            registry = MetricsRegistry()
            co = Coalescer(registry)
            calls = []

            async def start(flight):
                calls.append(flight.key)
                await asyncio.sleep(0.01)
                return 42

            results = await asyncio.gather(
                *(co.run("job", start) for _ in range(5))
            )
            assert results == [42] * 5
            assert calls == ["job"]
            snap = registry.snapshot()["counters"]
            assert snap["serve.coalesce.leader"] == 1
            assert snap["serve.coalesce.joined"] == 4
            assert co.flight_count() == 0

        run(scenario())

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            co = Coalescer()
            calls = []

            async def start(flight):
                calls.append(flight.key)
                return flight.key

            results = await asyncio.gather(
                co.run("x", start), co.run("y", start)
            )
            assert sorted(results) == ["x", "y"]
            assert sorted(calls) == ["x", "y"]

        run(scenario())

    def test_error_propagates_to_all_waiters(self):
        async def scenario():
            co = Coalescer()

            async def start(flight):
                await asyncio.sleep(0.01)
                raise ValueError("boom")

            results = await asyncio.gather(
                *(co.run("bad", start) for _ in range(3)),
                return_exceptions=True,
            )
            assert all(isinstance(r, ValueError) for r in results)
            assert co.flight_count() == 0

        run(scenario())

    def test_leader_cancellation_does_not_kill_joiners(self):
        async def scenario():
            co = Coalescer()

            async def start(flight):
                await asyncio.sleep(0.02)
                return "done"

            leader = asyncio.ensure_future(co.run("k", start))
            await asyncio.sleep(0)
            joiner = asyncio.ensure_future(co.run("k", start))
            await asyncio.sleep(0)
            leader.cancel()
            try:
                await leader
            except asyncio.CancelledError:
                pass
            assert await joiner == "done"

        run(scenario())

    def test_progress_fans_out_to_subscribers(self):
        async def scenario():
            co = Coalescer()
            seen = []

            async def start(flight):
                flight.publish({"event": "progress", "done": 1, "total": 2})
                return "ok"

            flight = co.join("k", start)
            queue = flight.subscribe()
            assert await co.wait(flight) == "ok"
            while not queue.empty():
                seen.append(queue.get_nowait())
            # Terminal done event always lands, even for late subscribers.
            assert seen[-1] == {"event": "done", "ok": True}

        run(scenario())


# ----------------------------------------------------------------------
# batcher
# ----------------------------------------------------------------------
class _FakeEngine:
    """Records simulate_many calls; returns one result per spec."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.calls = []

    def simulate_many(self, settings, specs, progress=None):
        self.calls.append((settings, list(specs)))
        if progress is not None:
            progress(len(specs), len(specs))
        return [f"result:{spec}" for spec in specs]


class _Settings:
    def __init__(self, seed=1, trace_length=1000, warmup=100):
        self.seed = seed
        self.trace_length = trace_length
        self.warmup = warmup


class _HeldEngine(_FakeEngine):
    """A fake engine whose first dispatch runs until ``release`` is set,
    then returns or, with ``fail_first``, raises."""

    def __init__(self, fail_first=False):
        super().__init__()
        self.fail_first = fail_first
        self.started = threading.Event()
        self.release = threading.Event()

    def simulate_many(self, settings, specs, progress=None):
        first = not self.calls
        results = super().simulate_many(settings, specs, progress)
        if first:
            self.started.set()
            self.release.wait(10)
            if self.fail_first:
                raise RuntimeError("first dispatch failed")
        return results


async def _started(engine: _HeldEngine) -> None:
    """Yield to the loop until the held engine's first dispatch runs."""
    for _ in range(1000):
        if engine.started.is_set():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("the first dispatch never started")


class TestBatcher:
    def test_compatible_requests_share_one_dispatch(self):
        async def scenario():
            engine = _FakeEngine()
            batcher = SimulationBatcher(engine)
            settings = _Settings()
            results = await asyncio.gather(
                batcher.simulate(settings, "gcc"),
                batcher.simulate(settings, "mcf"),
                batcher.simulate(settings, "swim"),
            )
            assert results == ["result:gcc", "result:mcf", "result:swim"]
            assert len(engine.calls) == 1
            assert engine.calls[0][1] == ["gcc", "mcf", "swim"]
            snap = engine.metrics.snapshot()["counters"]
            assert snap["serve.batch.dispatches"] == 1
            assert snap["serve.batch.jobs"] == 3

        run(scenario())

    def test_incompatible_settings_split_batches(self):
        async def scenario():
            engine = _FakeEngine()
            batcher = SimulationBatcher(engine)
            await asyncio.gather(
                batcher.simulate(_Settings(seed=1), "gcc"),
                batcher.simulate(_Settings(seed=2), "gcc"),
            )
            assert len(engine.calls) == 2

        run(scenario())

    def test_lone_request_dispatches_after_one_loop_turn(self):
        async def scenario():
            engine = _FakeEngine()
            batcher = SimulationBatcher(engine)
            task = asyncio.ensure_future(batcher.simulate(_Settings(), "gcc"))
            await asyncio.sleep(0)  # the request reaches the batcher
            assert batcher.pending() == 1
            await asyncio.sleep(0)  # the turn it arrived in has ended
            counters = engine.metrics.snapshot()["counters"]
            assert counters.get("serve.batch.dispatches") == 1
            assert await task == "result:gcc"
            assert batcher.pending() == 0

        run(scenario())

    def test_arrivals_during_a_dispatch_share_the_next_one(self):
        async def scenario():
            engine = _HeldEngine()
            batcher = SimulationBatcher(engine)
            settings = _Settings()
            first = asyncio.ensure_future(batcher.simulate(settings, "gcc"))
            await _started(engine)
            queued = []
            for spec in ("mcf", "swim", "art"):
                queued.append(
                    asyncio.ensure_future(batcher.simulate(settings, spec))
                )
                await asyncio.sleep(0.03)  # each in its own loop turn
            assert batcher.pending() == 4
            assert len(engine.calls) == 1  # nothing left behind the first
            engine.release.set()
            assert await asyncio.wait_for(first, 10) == "result:gcc"
            assert await asyncio.wait_for(asyncio.gather(*queued), 10) == [
                "result:mcf", "result:swim", "result:art"
            ]
            assert [specs for _, specs in engine.calls] == [
                ["gcc"], ["mcf", "swim", "art"]
            ]
            counters = engine.metrics.snapshot()["counters"]
            assert counters["serve.batch.dispatches"] == 2
            assert counters["serve.batch.jobs"] == 4
            assert batcher.pending() == 0

        run(scenario())

    def test_batch_behind_a_failing_dispatch_still_succeeds(self):
        async def scenario():
            engine = _HeldEngine(fail_first=True)
            batcher = SimulationBatcher(engine)
            settings = _Settings()
            first = asyncio.ensure_future(batcher.simulate(settings, "gcc"))
            await _started(engine)
            queued = []
            for spec in ("mcf", "swim"):
                queued.append(
                    asyncio.ensure_future(batcher.simulate(settings, spec))
                )
                await asyncio.sleep(0.03)
            engine.release.set()
            with pytest.raises(RuntimeError, match="first dispatch failed"):
                await asyncio.wait_for(first, 10)
            assert await asyncio.wait_for(asyncio.gather(*queued), 10) == [
                "result:mcf", "result:swim"
            ]
            assert [specs for _, specs in engine.calls] == [
                ["gcc"], ["mcf", "swim"]
            ]
            assert batcher.pending() == 0

        run(scenario())

    def test_dispatch_the_pool_refuses_fails_its_waiters(self):
        async def scenario():
            engine = _FakeEngine()
            pool = ThreadPoolExecutor(max_workers=1)
            pool.shutdown()
            batcher = SimulationBatcher(engine, executor=pool)
            with pytest.raises(RuntimeError, match="shutdown"):
                await asyncio.wait_for(
                    batcher.simulate(_Settings(), "gcc"), 10
                )
            assert batcher.pending() == 0
            assert engine.calls == []
            # The identity is free again: the next request is dispatched.
            batcher.executor = None
            assert await asyncio.wait_for(
                batcher.simulate(_Settings(), "mcf"), 10
            ) == "result:mcf"

        run(scenario())


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
class TestRouter:
    def make(self):
        router = Router()

        async def handler(server, request):
            return "ok"

        router.add("GET", "/healthz", handler)
        router.add("POST", "/v1/population", handler)
        return router

    def test_resolve(self):
        router = self.make()
        assert router.resolve("get", "/healthz") is not None

    def test_unknown_path_404(self):
        with pytest.raises(RouteError) as info:
            self.make().resolve("GET", "/nope")
        assert info.value.status == 404

    def test_wrong_method_405_with_allow(self):
        with pytest.raises(RouteError) as info:
            self.make().resolve("DELETE", "/v1/population")
        assert info.value.status == 405
        assert info.value.allow == ["POST"]


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_population_defaults(self):
        query = parse_population({})
        assert query.policy.name == "nominal"
        assert query.detail == "summary"
        assert query.stream is False
        assert query.key

    def test_population_key_is_deterministic(self):
        body = {"seed": 9, "chips": 50, "policy": "nominal"}
        assert parse_population(body).key == parse_population(body).key
        assert (
            parse_population({"seed": 9, "chips": 50}).key
            != parse_population({"seed": 10, "chips": 50}).key
        )

    def test_population_rejects_unknown_policy(self):
        with pytest.raises(ProtocolError, match="policy"):
            parse_population({"policy": "nope"})

    def test_population_rejects_bad_detail(self):
        with pytest.raises(ProtocolError, match="detail"):
            parse_population({"detail": "everything"})

    def test_population_rejects_non_integer_seed(self):
        with pytest.raises(ProtocolError, match="seed"):
            parse_population({"seed": "seven"})

    def test_body_must_be_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_population([1, 2, 3])

    def test_simulation_requires_benchmark(self):
        with pytest.raises(ProtocolError, match="benchmark"):
            parse_simulation({})

    def test_simulation_rejects_unknown_benchmark(self):
        with pytest.raises(ProtocolError):
            parse_simulation({"benchmark": "not-a-workload"})

    def test_simulation_way_cycles_validated(self):
        with pytest.raises(ProtocolError, match="way_cycles"):
            parse_simulation({"benchmark": "gcc", "way_cycles": ["x"]})
        query = parse_simulation(
            {"benchmark": "gcc", "way_cycles": [1, None, 2, 1]}
        )
        assert query.spec == ("gcc", (1, None, 2, 1), None)

    @pytest.mark.parametrize("fields,message", [
        ({"way_cycles": [0, 4, 4, 4]}, "latency must be >= 1"),
        ({"way_cycles": [99, 99]}, "the L1D has 4"),
        ({"way_cycles": [None, None, None, None]}, "one way must stay"),
        ({"uniform_latency": 0}, "uniform_latency"),
    ])
    def test_simulation_refuses_what_the_engine_refuses(self, fields, message):
        with pytest.raises(ProtocolError, match=message):
            parse_simulation(dict(fields, benchmark="gzip"))

    def test_one_chip_refused(self):
        with pytest.raises(ProtocolError, match="two chips"):
            parse_population({"chips": 1})
        with pytest.raises(ProtocolError, match="two chips"):
            parse_estimate({"chips": 1})

    def test_experiment_rejects_unknown_name(self):
        with pytest.raises(ProtocolError, match="unknown experiment"):
            parse_experiment({"name": "table99"})

    def test_experiment_key_varies_with_settings(self):
        a = parse_experiment({"name": "table2", "seed": 1})
        b = parse_experiment({"name": "table2", "seed": 2})
        assert a.key != b.key


# ----------------------------------------------------------------------
# warm population answers
# ----------------------------------------------------------------------
def _spy(monkeypatch, function) -> list:
    """Count every call of ``function`` made through a name a ``repro``
    module binds it to; one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    sites = [
        module for name, module in sorted(sys.modules.items())
        if name.startswith("repro.")
        and vars(module).get(function.__name__) is function
    ]
    assert sites, f"no repro module binds {function.__name__}"
    for module in sites:
        monkeypatch.setattr(module, function.__name__, counted)
    return calls


def _yield_gauges(engine: Engine) -> dict:
    return {
        name: value
        for name, value in engine.metrics.snapshot()["gauges"].items()
        if name.startswith("yield.")
    }


class TestWarmPopulation:
    """A warm population answer does no chip-array work: the loss counts
    and base yields are derived once, with the population."""

    def test_repeats_count_nothing(self, monkeypatch):
        counts = _spy(monkeypatch, loss_counts)
        wilsons = _spy(monkeypatch, wilson_interval)
        engine = Engine(EngineConfig(persistent=False))
        settings = ExperimentSettings(seed=12, chips=64)
        result = engine.population(settings)
        payload = population_payload(result)
        gauges = _yield_gauges(engine)
        assert counts and wilsons  # the cold answer derived them
        cold = (len(counts), len(wilsons))
        for _ in range(100):
            assert population_payload(result) == payload
        for _ in range(100):
            assert engine.population(settings) is result
            assert _yield_gauges(engine) == gauges
        assert (len(counts), len(wilsons)) == cold

    def test_gauges_are_the_base_yields(self):
        """The gauges carry each architecture's ships over chips and its
        Wilson half-width, as counted from the pass column."""
        engine = Engine(EngineConfig(persistent=False))
        result = engine.population(ExperimentSettings(seed=12, chips=64))
        gauges = _yield_gauges(engine)
        for figure, horizontal in (("regular.base", False),
                                   ("horizontal.base", True)):
            passes = result.chips(horizontal).passes
            ships = int(np.count_nonzero(passes))
            low, high = wilson_interval(ships, passes.shape[0])
            assert gauges[f"yield.estimate.{figure}"] == ships / 64
            assert gauges[f"yield.ci_halfwidth.{figure}"] == \
                (high - low) / 2.0
            assert gauges[f"yield.samples.{figure}"] == 64
        assert len(gauges) == 6
