"""Micro-trace tests for the out-of-order pipeline engine.

Each test builds a tiny hand-written trace and checks a directional or
counter-level property of the timing model: speculative scheduling,
load-bypass stalls, selective replay, structural hazards, and branch
redirection.

Measurement style: the machine is out of order, so any in-stream warmup
boundary leaks (later instructions issue under the shadow of earlier cold
misses). Steady-state rates are therefore measured as *deltas* between a
short and a long run of the same pattern — the cold-start costs cancel
exactly — and event counters are asserted on full runs.
"""

import pytest

from oracles.compiled import from_instructions
from oracles.trace import TraceInstruction
from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.setassoc import WayConfig
from repro.core.errors import SimulationError, TraceError
from repro.uarch import PAPER_CORE, Simulator
from repro.uarch.isa import OpClass
from repro.uarch.pipeline import PipelineEngine
from repro.workloads import get_profile
from repro.workloads.compiled import compile_trace


def ialu(dest=None, srcs=(), pc=0):
    return TraceInstruction(op=OpClass.IALU, dest=dest, srcs=srcs, pc=pc)


def load(dest, address, srcs=(), pc=0):
    return TraceInstruction(
        op=OpClass.LOAD, dest=dest, srcs=srcs, address=address, pc=pc
    )


def run(trace, **kwargs):
    return Simulator(**kwargs).run(from_instructions(trace))


def per_op_cycles(make_trace, short=100, long=400, **kwargs):
    """Steady-state cycles per operation via the delta of two runs."""
    a = run(make_trace(short), **kwargs)
    b = run(make_trace(long), **kwargs)
    return (b.cycles - a.cycles) / (long - short)


class TestTraceValidation:
    """The instruction record's own checks (the oracle's; production
    checks the same rules on whole columns, see test_trace_columns)."""

    def test_load_needs_address(self):
        with pytest.raises(TraceError):
            TraceInstruction(op=OpClass.LOAD, dest=1)

    def test_alu_must_not_have_address(self):
        with pytest.raises(TraceError):
            TraceInstruction(op=OpClass.IALU, dest=1, address=0x100)

    def test_store_has_no_dest(self):
        with pytest.raises(TraceError):
            TraceInstruction(op=OpClass.STORE, dest=1, address=0x100)

    def test_only_branches_mispredict(self):
        with pytest.raises(TraceError):
            TraceInstruction(op=OpClass.IALU, mispredicted=True)

    def test_register_bounds(self):
        with pytest.raises(TraceError):
            TraceInstruction(op=OpClass.IALU, dest=32)
        with pytest.raises(TraceError):
            TraceInstruction(op=OpClass.IALU, dest=1, srcs=(40,))

    def test_at_most_two_sources(self):
        with pytest.raises(TraceError):
            TraceInstruction(op=OpClass.IALU, dest=1, srcs=(1, 2, 3))


class TestThroughput:
    def test_independent_ops_reach_issue_width(self):
        """Independent ALU ops on a 4-wide machine: ~0.25 cycles/op."""
        rate = per_op_cycles(lambda n: [ialu(dest=i % 28) for i in range(n)])
        assert rate < 0.40

    def test_dependent_chain_serialises(self):
        """A strict dependency chain runs at ~1 op/cycle (IALU latency)."""
        rate = per_op_cycles(lambda n: [ialu(dest=1, srcs=(1,))] * n)
        assert 0.9 < rate < 1.2

    def test_chain_slower_than_independent(self):
        chain = per_op_cycles(lambda n: [ialu(dest=1, srcs=(1,))] * n)
        indep = per_op_cycles(lambda n: [ialu(dest=i % 28) for i in range(n)])
        assert chain > indep * 2

    def test_imult_structural_hazard(self):
        """One multiplier: independent multiplies serialise at issue."""
        rate = per_op_cycles(
            lambda n: [
                TraceInstruction(op=OpClass.IMULT, dest=i % 28)
                for i in range(n)
            ]
        )
        assert rate > 0.9

    def test_mem_port_limit(self):
        """2 ports: independent same-block loads cap at 2 per cycle."""
        rate = per_op_cycles(lambda n: [load(i % 28, 0x100) for i in range(n)])
        assert rate > 0.45


class TestLoadUseTiming:
    def test_dependent_waits_for_load(self):
        """A consumer chain behind a load finishes later than without it."""
        base = [ialu(dest=5)] + [ialu(dest=6, srcs=(6,)) for _ in range(20)]
        withload = [load(6, 0x100)] + [
            ialu(dest=6, srcs=(6,)) for _ in range(20)
        ]
        assert run(withload).cycles >= run(base).cycles

    def test_serialized_pointer_chase_costs_hit_latency_per_hop(self):
        """Chained loads (each address depends on the previous) cost the
        4-cycle hit latency per hop in steady state."""
        rate = per_op_cycles(lambda n: [load(7, 0x100, srcs=(7,))] * n)
        assert 3.5 < rate < 4.5

    def test_slow_way_adds_one_cycle_per_hop(self):
        """The same chase on a 5-cycle cache runs ~1 cycle/hop slower and
        absorbs the late hits in load-bypass buffers."""
        fast = per_op_cycles(lambda n: [load(7, 0x100, srcs=(7,))] * n)
        slow = per_op_cycles(
            lambda n: [load(7, 0x100, srcs=(7,))] * n,
            l1d_config=WayConfig(latencies=(5, 5, 5, 5)),
        )
        assert 0.7 < slow - fast < 1.3
        full = run(
            [load(7, 0x100, srcs=(7,))] * 100,
            l1d_config=WayConfig(latencies=(5, 5, 5, 5)),
        )
        assert full.lbb_stalls > 50
        assert full.slow_way_hits > 90

    def test_lbb_disabled_forces_replay(self):
        """With zero-slack buffers a 5-cycle hit replays its dependents
        instead of stalling them."""
        result = run(
            [load(7, 0x100, srcs=(7,))] * 50,
            core=PAPER_CORE.replace(lbb_slack=0),
            l1d_config=WayConfig(latencies=(5, 5, 5, 5)),
        )
        assert result.lbb_stalls == 0
        assert result.replays > 20

    def test_miss_triggers_replay(self):
        """Consumers issued in the shadow of a missing load replay."""
        trace = []
        stride = 128 * 32
        for i in range(40):
            trace.append(load(7, 0x10_0000 + i * stride * 5))
            trace.append(ialu(dest=8, srcs=(7,)))
        result = run(trace)
        assert result.replays > 10

    def test_hits_do_not_replay(self):
        trace = [load(7, 0x100)]
        for _ in range(60):
            trace.append(load(7, 0x100))
            trace.append(ialu(dest=8, srcs=(7,)))
        result = run(trace)
        assert result.replays <= 2  # only the cold miss's shadow


class TestBranches:
    def test_mispredict_stalls_fetch(self):
        def make(n, mispredict):
            trace = []
            for i in range(n):
                if i % 20 == 10:
                    trace.append(
                        TraceInstruction(
                            op=OpClass.BRANCH,
                            srcs=(1,),
                            mispredicted=mispredict,
                        )
                    )
                else:
                    trace.append(ialu(dest=i % 28))
            return trace

        good = run(make(200, False))
        bad = run(make(200, True))
        assert bad.branch_mispredicts == 10
        assert good.branch_mispredicts == 0
        # each mispredict costs at least a ~5-cycle redirect bubble
        assert bad.cycles > good.cycles + 5 * 10

    def test_correct_branches_are_cheap(self):
        def make(n):
            return [
                TraceInstruction(op=OpClass.BRANCH, srcs=(1,))
                if i % 5 == 0
                else ialu(dest=i % 28)
                for i in range(n)
            ]

        assert per_op_cycles(make) < 0.6


class TestAccounting:
    def test_all_instructions_commit(self):
        result = run([ialu(dest=i % 28) for i in range(123)])
        assert result.instructions == 123

    def test_counters_exact_without_warmup(self):
        trace = []
        for _ in range(20):
            trace.append(load(1, 0x100))
            trace.append(
                TraceInstruction(op=OpClass.STORE, srcs=(1,), address=0x200)
            )
        result = run(trace)
        assert result.loads == 20
        assert result.stores == 20

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            run([])

    def test_warmup_shrinks_measured_window(self):
        trace = [load(i % 28, 0x100 + (i % 4) * 4096) for i in range(200)]
        full = Simulator().run(from_instructions(trace), warmup=0)
        warm = Simulator().run(from_instructions(trace), warmup=100)
        assert warm.instructions == 100
        assert warm.cycles < full.cycles

    def test_determinism(self):
        trace = [load(i % 28, (i * 3) % 4096 * 8) for i in range(200)]
        a = Simulator().run(from_instructions(trace))
        b = Simulator().run(from_instructions(trace))
        assert a == b

    def test_bypass_occupancy_is_released_at_each_50k_cycle_boundary(self):
        # mcf's chase misses stretch 6,000 instructions past 100,000
        # cycles, and the 5-cycle ways make bypass holds all along. The
        # loop jumps over idle cycles, so it rarely lands on a multiple
        # of 50,000 itself; the occupancy must be dropped when it passes
        # one.
        trace = compile_trace(get_profile("mcf"), 7, 6000)
        hierarchy = MemoryHierarchy(l1d_config=WayConfig((4, 5, 5, 5)))
        engine = PipelineEngine(PAPER_CORE, hierarchy, trace)
        engine.run()
        assert engine.cycle >= 100_000
        assert engine.lbb.total_stalls > 0
        last_boundary = engine.cycle // 50_000 * 50_000
        assert min(engine.lbb._occupancy) >= last_boundary
