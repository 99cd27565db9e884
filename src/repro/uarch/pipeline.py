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

A simulation allocates nothing per instruction. Its state lives in
per-run lists indexed by sequence number (the trace index): the cycle an
instruction may dispatch, its ready time, the wake-up it broadcasts, its
done cycle (a sentinel later than any cycle until it issues, so
"completed" is ``done <= cycle``), up to two producers, the count of
producers not yet issued, and a waiters list made only for a producer
that gets one. Fetch, dispatch and commit run in program order, so the
front end is the sequence range ``[dispatched, position)`` and the ROB is
``[committed, dispatched)``. The heaps hold ints: completion cycles, and
``time << bits | seq`` keys for ready instructions and late-load
discovery, which order as ``(time, seq)`` pairs would. Functional-unit
pools and the next cycle's reservations (load-bypass occupancy and
slow-way port blocking) are small lists indexed by pool.
"""

from __future__ import annotations

import heapq
import sys
from typing import List, Optional

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
#: The done cycle of an instruction that has not issued.
_NEVER = sys.maxsize
#: The load-bypass occupancy before each multiple of this many cycles is
#: dropped at the first simulated cycle past it.
_RELEASE_INTERVAL = 50_000


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
        # List copies of the small-valued columns: a list read is cheaper
        # than an array read, and small ints are shared, so a copy costs
        # one pointer per instruction. Addresses and pcs are large and
        # read once each, so a copy would only build their ints up front.
        ops = trace.ops[:length].tolist()
        dests = trace.dests[:length].tolist()
        src0 = trace.src0[:length].tolist()
        src1 = trace.src1[:length].tolist()
        mispredicts = trace.mispredicts[:length].tolist()
        addresses = trace.addresses
        pcs = trace.pcs

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
        never = _NEVER
        # Heap keys pack (time, seq) as time << bits | seq.
        bits = length.bit_length()
        mask = (1 << bits) - 1

        # Per-instruction state, indexed by sequence number.
        dispatch_at = [0] * length  # fetch cycle + front-end depth
        ready_time = [0] * length
        wake = [0] * length  # the cycle dependents may issue from
        done = [never] * length
        producer0 = [-1] * length  # producers not completed at dispatch
        producer1 = [-1] * length
        unissued = [0] * length  # of those, the ones not yet issued
        waiters: List[Optional[List[int]]] = [None] * length

        cycle = 0
        warmup_cycle = 0
        last_commit_cycle = 0
        release_at = _RELEASE_INTERVAL
        # fetch
        position = 0  # next trace index to fetch (= its sequence number)
        exhausted = False
        blocked_on = -1  # the unissued mispredicted branch, if any
        stall_until = 0
        last_fetch_block = None
        # window: the front end is [dispatched, position), the ROB
        # [committed, dispatched) (``committed`` counts commits, so it is
        # also the ROB head's sequence number)
        dispatched = 0
        iq_used = 0
        last_writer = [-1] * NUM_REGISTERS
        ready: List[int] = []  # heap of ready_time << bits | seq
        completions: List[int] = []  # heap of done cycles
        discoveries: List[int] = []  # heap of exec_start << bits | seq
        deferred: List[int] = []
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
                # Keys below this are due: their time is at most this cycle.
                due = (cycle + 1) << bits
                # -- events: completions (which only mark cycles to
                # visit: done <= cycle is completion), and misses
                # discovered at execute
                while completions and completions[0] <= cycle:
                    heappop(completions)
                while discoveries and discoveries[0] < due:
                    seq = heappop(discoveries) & mask
                    # Consumers issued in the shadow replay on their own;
                    # the rest are re-timed for the refill.
                    revised = done[seq] - sched
                    if revised <= cycle:
                        revised = cycle + 1
                    wake[seq] = revised
                    if revised > revision_horizon:
                        revision_horizon = revised

                # -- commit
                count = 0
                while (
                    committed < dispatched
                    and count < commit_width
                    and done[committed] <= cycle
                ):
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
                if ready and ready[0] < due:
                    if reserved_cycle == cycle:
                        pool_used, reserved = reserved, pool_used
                    else:
                        pool_used[:] = _IDLE_POOLS
                    check_revised = revision_horizon > cycle
                    issued = 0
                    while ready and issued < issue_width:
                        key = ready[0]
                        if key >= due:
                            break
                        heappop(ready)
                        seq = key & mask
                        if done[seq] != never or key >> bits < ready_time[seq]:
                            continue  # stale heap entry
                        first = producer0[seq]
                        second = producer1[seq]
                        if check_revised:
                            # A producer's wake-up may have been revised
                            # after this entry was queued (miss discovery):
                            # re-time the consumer without an issue slot.
                            revised = 0
                            if first >= 0:
                                revised = wake[first]
                            if second >= 0 and wake[second] > revised:
                                revised = wake[second]
                            if revised > cycle:
                                if revised > ready_time[seq]:
                                    ready_time[seq] = revised
                                heappush(ready, ready_time[seq] << bits | seq)
                                continue
                        op = ops[seq]
                        pool = op_pool[op]
                        if pool_used[pool] >= pool_sizes[pool]:
                            deferred.append(seq)  # structural hazard
                            continue

                        # Will the data actually be there at execute?
                        exec_start = cycle + sched
                        data_ready = 0
                        if first >= 0:
                            data_ready = done[first]
                        if second >= 0 and done[second] > data_ready:
                            data_ready = done[second]
                        if data_ready == never:
                            raise SimulationError(
                                "consumer scheduled before its producer issued"
                            )
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
                                if retry > ready_time[seq]:
                                    ready_time[seq] = retry
                                heappush(ready, ready_time[seq] << bits | seq)
                                continue
                            # Absorbed by a load-bypass buffer: the operand
                            # occupies this FU's input, blocking one issue
                            # of the same kind next cycle.
                            exec_start += shortfall
                            if reserved_cycle != cycle + 1:
                                reserved[:] = _IDLE_POOLS
                                reserved_cycle = cycle + 1
                            reserved[pool] += 1

                        iq_used -= 1
                        if op == _LOAD:
                            access = data_access(addresses[seq], False)
                            latency = access[0]
                            loads += 1
                            finish = exec_start + latency
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
                                heappush(discoveries, exec_start << bits | seq)
                            # Dependents wake on the predicted latency,
                            # delayed by this load's own bypass slip.
                            broadcast = predicted + exec_start - sched
                        elif op == _STORE:
                            data_access(addresses[seq], True)
                            stores += 1
                            finish = exec_start + op_latency[op]
                            broadcast = finish
                        else:
                            finish = exec_start + op_latency[op]
                            broadcast = finish - sched
                        done[seq] = finish
                        heappush(completions, finish)
                        wake[seq] = broadcast
                        consumers = waiters[seq]
                        if consumers is not None:
                            waiters[seq] = None
                            for consumer in consumers:
                                if done[consumer] != never:
                                    continue
                                if broadcast > ready_time[consumer]:
                                    ready_time[consumer] = broadcast
                                left = unissued[consumer] - 1
                                unissued[consumer] = left
                                if left <= 0:
                                    heappush(
                                        ready,
                                        ready_time[consumer] << bits
                                        | consumer,
                                    )
                        if mispredicts[seq]:
                            mispredicted += 1
                            if finish + 1 > stall_until:
                                stall_until = finish + 1
                            if blocked_on == seq:
                                blocked_on = -1
                    if deferred:
                        retry = cycle + 1
                        for seq in deferred:  # retry next cycle
                            if retry > ready_time[seq]:
                                ready_time[seq] = retry
                            heappush(ready, ready_time[seq] << bits | seq)
                        deferred.clear()

                # -- dispatch: in order, up to the fetch width and the
                # free ROB and issue-queue entries
                end = dispatched + fetch_width
                if end > position:
                    end = position
                if end > committed + rob_size:
                    end = committed + rob_size
                if end > dispatched + iq_size - iq_used:
                    end = dispatched + iq_size - iq_used
                soonest = cycle + 1
                while dispatched < end and dispatch_at[dispatched] <= cycle:
                    seq = dispatched
                    dispatched += 1
                    iq_used += 1
                    time = soonest
                    waiting = 0
                    src = src0[seq]
                    if src >= 0:
                        producer = last_writer[src]
                        if producer >= 0 and done[producer] > cycle:
                            producer0[seq] = producer
                            if done[producer] != never:
                                if wake[producer] > time:
                                    time = wake[producer]
                            else:
                                waiting = 1
                                queue = waiters[producer]
                                if queue is None:
                                    waiters[producer] = [seq]
                                else:
                                    queue.append(seq)
                        src = src1[seq]
                        if src >= 0:
                            producer = last_writer[src]
                            if producer >= 0 and done[producer] > cycle:
                                producer1[seq] = producer
                                if done[producer] != never:
                                    if wake[producer] > time:
                                        time = wake[producer]
                                else:
                                    waiting += 1
                                    queue = waiters[producer]
                                    if queue is None:
                                        waiters[producer] = [seq]
                                    else:
                                        queue.append(seq)
                    ready_time[seq] = time
                    dest = dests[seq]
                    if dest >= 0:
                        last_writer[dest] = seq
                    if waiting:
                        unissued[seq] = waiting
                    else:
                        heappush(ready, time << bits | seq)

                # -- fetch
                if (
                    blocked_on < 0
                    and cycle >= stall_until
                    and not exhausted
                    and position - dispatched < frontend_limit
                ):
                    fetched = 0
                    arrival = cycle + frontend_stages
                    while fetched < fetch_width:
                        if position >= length:
                            exhausted = True
                            break
                        dispatch_at[position] = arrival
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
                        mispredicted_branch = mispredicts[position]
                        position += 1
                        if mispredicted_branch:
                            blocked_on = position - 1
                            break
                        if cycle < stall_until:
                            break

                if exhausted and committed == position:
                    break
                if cycle - last_commit_cycle > _DEADLOCK_LIMIT:
                    raise SimulationError(
                        f"no commit for {_DEADLOCK_LIMIT} cycles "
                        f"(cycle {cycle}, committed {committed})"
                    )

                # -- next cycle: the earliest future one at which anything
                # can happen (0 while there is none). Both event heaps hold
                # only future cycles here: the due ones were handled above,
                # and issue pushes cycles past this one (sched >= 1).
                upcoming = completions[0] if completions else 0
                if discoveries:
                    time = discoveries[0] >> bits
                    if not upcoming or time < upcoming:
                        upcoming = time
                if ready:
                    # An entry due by now (left when the issue width
                    # filled) proposes nothing, so it waits for the next
                    # other event: a known skew, kept until a change that
                    # alters every simulation result anyway (ROADMAP).
                    time = ready[0] >> bits
                    if time > cycle and (not upcoming or time < upcoming):
                        upcoming = time
                if dispatched < position:
                    time = dispatch_at[dispatched]
                    if time > cycle and (not upcoming or time < upcoming):
                        upcoming = time
                if (
                    not exhausted
                    and blocked_on < 0
                    and position - dispatched < frontend_limit
                ):
                    time = stall_until if stall_until > cycle else cycle + 1
                    if not upcoming or time < upcoming:
                        upcoming = time
                cycle = upcoming if upcoming else cycle + 1
                if cycle >= release_at:
                    # Holds are only queried from cycle + sched on.
                    lbb.release_before(cycle)
                    release_at = cycle - cycle % _RELEASE_INTERVAL
                    release_at += _RELEASE_INTERVAL
        finally:
            self.cycle = cycle
            self.warmup_cycle = warmup_cycle
            self.committed = committed
            self.replay_count = replays
            self.branch_mispredicts = mispredicted
            self.load_count = loads
            self.store_count = stores
            self.slow_way_hits = slow_way_hits
