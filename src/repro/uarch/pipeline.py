"""The out-of-order scheduling engine.

Timing model
------------

The engine is trace-driven and cycle-level. Every dynamic instruction
moves through: fetch -> (frontend_stages) -> dispatch (ROB + issue queue)
-> schedule -> (sched_to_exec_stages) -> execute -> complete -> commit.

The paper's two key mechanisms are modelled faithfully:

* **Speculative scheduling.** When a producer issues at cycle T with
  execute latency L, its dependents may issue from cycle T + L so they
  reach the execute stage exactly when the result forwards. Loads
  broadcast their *predicted* latency (the 4-cycle L1D hit), so a
  dependent may be in flight when the load turns out to be slow.

* **Load-bypass buffers and selective replay.** A dependent arriving at
  execute before its data stalls in a load-bypass buffer if the shortfall
  is within the buffer's slack (one cycle for the paper's single-entry
  buffers — the 5-cycle VACA way). A larger shortfall (an L1 miss) means
  the speculatively issued dependent is squashed and reissued when the
  data is actually available, having wasted its issue slot and functional
  unit — the paper's replay mechanism. Dependents that have not issued
  when the miss is discovered (the load's execute stage) are simply
  re-woken for the refill time.

Mispredicted branches stall fetch from the moment they are fetched until
they resolve at execute; the front-end depth then refills naturally.

Kernel
------

:meth:`PipelineEngine.run` is one loop over local variables. Each
iteration is one cycle with something to do, and runs the stages in this
order: completion and miss-discovery events, commit, issue, dispatch,
fetch, then a jump to the next cycle at which anything can happen.
Instruction fields are read straight from the compiled trace's columns
by sequence number, so the only per-instruction object is
:class:`_Inst`. Functional-unit pools and the next cycle's reservations
(load-bypass occupancy and slow-way port blocking) are small lists
indexed by pool.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.errors import SimulationError
from repro.uarch.config import CoreConfig
from repro.uarch.isa import FU_KIND, FU_LATENCIES, NUM_REGISTERS, OpClass
from repro.uarch.lbb import LoadBypassBuffers

__all__ = ["PipelineEngine"]

#: Safety valve: cycles without any commit before declaring deadlock.
_DEADLOCK_LIMIT = 200_000

#: Op code -> class: the enum definition order, which is also the
#: encoding of ``repro.workloads.compiled.CompiledTrace.ops``.
_OPS = tuple(OpClass)
_LOAD = _OPS.index(OpClass.LOAD)
_STORE = _OPS.index(OpClass.STORE)
#: Functional-unit pool names, and each op code's pool index and latency.
_POOLS = tuple(dict.fromkeys(FU_KIND[op] for op in _OPS))
_OP_POOL = tuple(_POOLS.index(FU_KIND[op]) for op in _OPS)
_OP_LATENCY = tuple(FU_LATENCIES[op] for op in _OPS)
#: The pool a slow L1D way blocks for one cycle (its cache port).
_MEM_POOL = _POOLS.index("mem")
_IDLE_POOLS = (0,) * len(_POOLS)


class _Inst:
    """Mutable per-instruction pipeline state; ``seq`` is its trace index."""

    __slots__ = (
        "seq",
        "op",
        "fetch_cycle",
        "producers",
        "waiters",
        "remaining",
        "ready_time",
        "issued",
        "done",
        "wake_time",
        "completed",
    )

    def __init__(self, seq: int, op: int, fetch_cycle: int) -> None:
        self.seq = seq
        self.op = op
        self.fetch_cycle = fetch_cycle
        self.producers: List["_Inst"] = []
        self.waiters: List["_Inst"] = []
        self.remaining = 0
        self.ready_time = 0
        self.issued = False
        self.done = -1
        self.wake_time = -1
        self.completed = False


class PipelineEngine:
    """Runs one compiled trace through the configured core and hierarchy.

    Parameters
    ----------
    config:
        Core parameters.
    hierarchy:
        The memory hierarchy (carries the yield-aware L1D configuration).
        Every cache access goes through :meth:`MemoryHierarchy.data_access`
        (once per load and store) or
        :meth:`MemoryHierarchy.instruction_fetch`.
    trace:
        A :class:`repro.workloads.compiled.CompiledTrace`; its columns
        were checked when they were generated
        (:func:`repro.workloads.compiled.check_columns`).
    warmup_instructions:
        Instructions whose commit ends the warmup window: counters and
        cache statistics are zeroed at the commit that reaches this
        count, before that cycle's issue stage.
    """

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        trace,
        warmup_instructions: int = 0,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.trace = trace
        self.lbb = LoadBypassBuffers(slack=config.lbb_slack)
        self.warmup_instructions = warmup_instructions
        self.warmup_cycle = 0
        self.cycle = 0
        # statistics, written by run()
        self.committed = 0
        self.replay_count = 0
        self.branch_mispredicts = 0
        self.load_count = 0
        self.store_count = 0
        self.slow_way_hits = 0

    def _reset_hierarchy_statistics(self) -> None:
        hierarchy = self.hierarchy
        hierarchy.l1d.reset_statistics()
        hierarchy.l1i.reset_statistics()
        hierarchy.l2.reset_statistics()
        hierarchy.l2_accesses = 0
        hierarchy.memory_accesses = 0

    def run(self) -> None:
        """Simulate until every fetched instruction has committed."""
        config = self.config
        hierarchy = self.hierarchy
        lbb = self.lbb
        # Bound here, so instrumentation that wraps these methods on the
        # class sees every access.
        data_access = hierarchy.data_access
        instruction_fetch = hierarchy.instruction_fetch
        heappush = heapq.heappush
        heappop = heapq.heappop

        trace = self.trace
        length = trace.length
        ops = trace.ops
        dests = trace.dests
        src0 = trace.src0
        src1 = trace.src1
        addresses = trace.addresses
        pcs = trace.pcs
        mispredicts = trace.mispredicts

        fetch_width = config.fetch_width
        frontend_limit = 3 * fetch_width
        frontend_stages = config.frontend_stages
        issue_width = config.issue_width
        commit_width = config.commit_width
        iq_size = config.iq_size
        rob_size = config.rob_size
        sched = config.sched_to_exec_stages
        predicted = config.predicted_load_latency
        lbb_slack = config.lbb_slack
        pool_sizes = [config.fu_pools[name] for name in _POOLS]
        op_pool = _OP_POOL
        op_latency = _OP_LATENCY
        l1i_offset_bits = hierarchy.l1i.geometry.block_bytes.bit_length() - 1
        l1i_latency = hierarchy.config.l1i_latency
        warmup = self.warmup_instructions
        warm = warmup == 0

        cycle = 0
        warmup_cycle = 0
        last_commit_cycle = 0
        # fetch
        position = 0  # next trace index to fetch (= its sequence number)
        exhausted = False
        blocked_on = None  # the unissued mispredicted branch, if any
        stall_until = 0
        last_fetch_block = None
        # window
        frontend = deque()  # fetched, awaiting dispatch
        rob = deque()
        iq_used = 0
        last_writer: List = [None] * NUM_REGISTERS
        ready: List = []  # heap of (ready_time, seq, inst)
        events: List = []  # heap of (time, kind, seq, inst)
        deferred: List[_Inst] = []
        # Latest revised wake-up of any miss-discovered load. While
        # ``cycle >= revision_horizon`` — every instruction window with
        # no pending slow load — the issue stage skips the producer
        # re-check: an unrevised producer's wake time is always folded
        # into the consumer's ready time before it enters the heap.
        revision_horizon = 0
        # Per-pool issues this cycle, and reservations made for the next
        # cycle. Those count only if that very cycle is simulated; the
        # jump to the next cycle with work may pass over it.
        pool_used = list(_IDLE_POOLS)
        reserved = list(_IDLE_POOLS)
        reserved_cycle = -1
        # statistics
        committed = 0
        replays = 0
        mispredicted = 0
        loads = 0
        stores = 0
        slow_way_hits = 0

        try:
            while True:
                # -- events: completions, and misses discovered at execute
                while events and events[0][0] <= cycle:
                    _, kind, _, inst = heappop(events)
                    if kind == 0:
                        inst.completed = True
                    else:
                        # Consumers issued in the shadow replay on their
                        # own; the rest are re-timed for the refill.
                        wake = inst.done - sched
                        if wake <= cycle:
                            wake = cycle + 1
                        inst.wake_time = wake
                        if wake > revision_horizon:
                            revision_horizon = wake

                # -- commit
                count = 0
                while rob and count < commit_width:
                    head = rob[0]
                    if not head.completed or head.done > cycle:
                        break
                    rob.popleft()
                    committed += 1
                    last_commit_cycle = cycle
                    count += 1
                    if not warm and committed >= warmup:
                        # Cache *contents* are kept (that is the point of
                        # warming up); only the statistics are zeroed,
                        # and the CPI window starts here.
                        warm = True
                        warmup_cycle = cycle
                        replays = 0
                        mispredicted = 0
                        loads = 0
                        stores = 0
                        slow_way_hits = 0
                        lbb.total_stalls = 0
                        lbb.overflows = 0
                        self._reset_hierarchy_statistics()

                # -- issue
                if ready and ready[0][0] <= cycle:
                    if reserved_cycle == cycle:
                        pool_used, reserved = reserved, pool_used
                    else:
                        pool_used[:] = _IDLE_POOLS
                    check_revised = revision_horizon > cycle
                    issued = 0
                    while ready and issued < issue_width:
                        entry = ready[0]
                        if entry[0] > cycle:
                            break
                        heappop(ready)
                        inst = entry[2]
                        if inst.issued or entry[0] < inst.ready_time:
                            continue  # stale heap entry
                        producers = inst.producers
                        if check_revised:
                            # A producer's wake-up may have been revised
                            # after this entry was queued (miss discovery):
                            # re-time the consumer without an issue slot.
                            revised = 0
                            for producer in producers:
                                if producer.wake_time > revised:
                                    revised = producer.wake_time
                            if revised > cycle:
                                if revised > inst.ready_time:
                                    inst.ready_time = revised
                                heappush(
                                    ready, (inst.ready_time, inst.seq, inst)
                                )
                                continue
                        op = inst.op
                        pool = op_pool[op]
                        if pool_used[pool] >= pool_sizes[pool]:
                            deferred.append(inst)  # structural hazard
                            continue

                        # Will the data actually be there at execute?
                        exec_start = cycle + sched
                        data_ready = 0
                        for producer in producers:
                            if not producer.issued:
                                raise SimulationError(
                                    "consumer scheduled before its producer "
                                    "issued"
                                )
                            if producer.done > data_ready:
                                data_ready = producer.done
                        pool_used[pool] += 1
                        issued += 1
                        shortfall = data_ready - exec_start
                        if shortfall > 0:
                            if shortfall > lbb_slack or not lbb.try_hold(
                                exec_start, shortfall
                            ):
                                # Speculatively issued under a miss (or no
                                # buffer space): squash and replay when the
                                # data arrives.
                                replays += 1
                                retry = data_ready - sched
                                if retry <= cycle:
                                    retry = cycle + 1
                                if retry > inst.ready_time:
                                    inst.ready_time = retry
                                heappush(
                                    ready, (inst.ready_time, inst.seq, inst)
                                )
                                continue
                            # Absorbed by a load-bypass buffer: the operand
                            # occupies this FU's input, blocking one issue
                            # of the same kind next cycle.
                            exec_start += shortfall
                            if reserved_cycle != cycle + 1:
                                reserved[:] = _IDLE_POOLS
                                reserved_cycle = cycle + 1
                            reserved[pool] += 1

                        inst.issued = True
                        iq_used -= 1
                        seq = inst.seq
                        if op == _LOAD:
                            access = data_access(addresses[seq], False)
                            latency = access[0]
                            loads += 1
                            done = exec_start + latency
                            if latency > predicted and access[1]:
                                # A 5-cycle way holds its cache port one
                                # cycle longer, blocking one memory issue
                                # slot next cycle.
                                slow_way_hits += 1
                                if reserved_cycle != cycle + 1:
                                    reserved[:] = _IDLE_POOLS
                                    reserved_cycle = cycle + 1
                                reserved[_MEM_POOL] += 1
                            if latency > predicted + lbb_slack:
                                # A miss for the scheduler: discovered at
                                # this load's execute stage.
                                heappush(events, (exec_start, 1, seq, inst))
                            # Dependents wake on the predicted latency,
                            # delayed by this load's own bypass slip.
                            wake = predicted + exec_start - sched
                        elif op == _STORE:
                            data_access(addresses[seq], True)
                            stores += 1
                            done = exec_start + op_latency[op]
                            wake = done
                        else:
                            done = exec_start + op_latency[op]
                            wake = done - sched
                        inst.done = done
                        heappush(events, (done, 0, seq, inst))
                        inst.wake_time = wake
                        for consumer in inst.waiters:
                            if consumer.issued:
                                continue
                            consumer.remaining -= 1
                            if wake > consumer.ready_time:
                                consumer.ready_time = wake
                            if consumer.remaining <= 0:
                                heappush(
                                    ready,
                                    (consumer.ready_time, consumer.seq,
                                     consumer),
                                )
                        inst.waiters.clear()
                        if mispredicts[seq]:
                            mispredicted += 1
                            if done + 1 > stall_until:
                                stall_until = done + 1
                            if blocked_on is inst:
                                blocked_on = None
                    if deferred:
                        for inst in deferred:  # retry next cycle
                            if cycle + 1 > inst.ready_time:
                                inst.ready_time = cycle + 1
                            heappush(ready, (inst.ready_time, inst.seq, inst))
                        deferred.clear()

                # -- dispatch
                count = 0
                while (
                    frontend
                    and count < fetch_width
                    and len(rob) < rob_size
                    and iq_used < iq_size
                ):
                    inst = frontend[0]
                    if inst.fetch_cycle + frontend_stages > cycle:
                        break
                    frontend.popleft()
                    rob.append(inst)
                    iq_used += 1
                    count += 1
                    seq = inst.seq
                    ready_time = cycle + 1
                    for src in (src0[seq], src1[seq]):
                        if src < 0:
                            break
                        producer = last_writer[src]
                        if producer is None or producer.completed:
                            continue
                        inst.producers.append(producer)
                        if producer.issued:
                            if producer.wake_time > ready_time:
                                ready_time = producer.wake_time
                        else:
                            inst.remaining += 1
                            producer.waiters.append(inst)
                    inst.ready_time = ready_time
                    dest = dests[seq]
                    if dest >= 0:
                        last_writer[dest] = inst
                    if inst.remaining == 0:
                        heappush(ready, (ready_time, seq, inst))

                # -- fetch
                if (
                    blocked_on is None
                    and cycle >= stall_until
                    and not exhausted
                    and len(frontend) < frontend_limit
                ):
                    fetched = 0
                    while fetched < fetch_width:
                        if position >= length:
                            exhausted = True
                            break
                        inst = _Inst(position, ops[position], cycle)
                        fetched += 1
                        # Instruction cache: pay the miss latency when
                        # entering a new block; the hit latency is part
                        # of the front end.
                        pc = pcs[position]
                        block = pc >> l1i_offset_bits
                        if block != last_fetch_block:
                            last_fetch_block = block
                            extra = instruction_fetch(pc) - l1i_latency
                            if extra > 0 and cycle + extra > stall_until:
                                stall_until = cycle + extra
                        frontend.append(inst)
                        mispredicted_branch = mispredicts[position]
                        position += 1
                        if mispredicted_branch:
                            blocked_on = inst
                            break
                        if cycle < stall_until:
                            break

                if exhausted and not rob and not frontend:
                    break
                if cycle - last_commit_cycle > _DEADLOCK_LIMIT:
                    raise SimulationError(
                        f"no commit for {_DEADLOCK_LIMIT} cycles "
                        f"(cycle {cycle}, committed {committed})"
                    )

                # -- next cycle: the earliest future one at which anything
                # can happen (0 while there is none)
                upcoming = 0
                if events and events[0][0] > cycle:
                    upcoming = events[0][0]
                if ready:
                    time = ready[0][0]
                    if time > cycle and (not upcoming or time < upcoming):
                        upcoming = time
                if frontend:
                    time = frontend[0].fetch_cycle + frontend_stages
                    if time > cycle and (not upcoming or time < upcoming):
                        upcoming = time
                if (
                    not exhausted
                    and blocked_on is None
                    and len(frontend) < frontend_limit
                ):
                    time = stall_until if stall_until > cycle else cycle + 1
                    if not upcoming or time < upcoming:
                        upcoming = time
                cycle = upcoming if upcoming else cycle + 1
                if cycle % 50_000 == 0:
                    lbb.release_before(cycle)
        finally:
            self.cycle = cycle
            self.warmup_cycle = warmup_cycle
            self.committed = committed
            self.replay_count = replays
            self.branch_mispredicts = mispredicted
            self.load_count = loads
            self.store_count = stores
            self.slow_way_hits = slow_way_hits
