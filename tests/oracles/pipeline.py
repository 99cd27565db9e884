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
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from .hierarchy import MemoryHierarchy
from .setassoc import block_address
from .trace import TraceInstruction
from repro.core.errors import SimulationError
from repro.uarch.config import CoreConfig
from repro.uarch.isa import FU_KIND, FU_LATENCIES, NUM_REGISTERS, OpClass
from repro.uarch.lbb import LoadBypassBuffers

__all__ = ["PipelineEngine"]

#: Safety valve: cycles without any commit before declaring deadlock.
_DEADLOCK_LIMIT = 200_000


class _Inst:
    """Mutable per-instruction pipeline state."""

    __slots__ = (
        "seq",
        "op",
        "dest",
        "srcs",
        "address",
        "pc",
        "mispredicted",
        "fetch_cycle",
        "producers",
        "waiters",
        "remaining",
        "ready_time",
        "issued",
        "done",
        "wake_time",
        "completed",
        "replays",
    )

    def __init__(
        self,
        seq: int,
        op: OpClass,
        dest: Optional[int],
        srcs: tuple,
        address: Optional[int],
        pc: int,
        mispredicted: bool,
    ) -> None:
        self.seq = seq
        self.op = op
        self.dest = dest
        self.srcs = srcs
        self.address = address
        self.pc = pc
        self.mispredicted = mispredicted
        self.fetch_cycle = 0
        self.producers: List["_Inst"] = []
        self.waiters: List["_Inst"] = []
        self.remaining = 0
        self.ready_time = 0
        self.issued = False
        self.done = -1
        self.wake_time = -1
        self.completed = False
        self.replays = 0


class PipelineEngine:
    """Runs one trace through the configured core and hierarchy.

    Parameters
    ----------
    config:
        Core parameters.
    hierarchy:
        The memory hierarchy (carries the yield-aware L1D configuration).
    trace:
        Iterable of :class:`TraceInstruction` (consumed lazily); decode a
        compiled trace with ``oracles.compiled.instructions`` first.
    """

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        trace: Iterable[TraceInstruction],
        warmup_instructions: int = 0,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self._trace: Iterator[TraceInstruction] = iter(trace)
        self.lbb = LoadBypassBuffers(slack=config.lbb_slack)
        self.warmup_instructions = warmup_instructions
        self.warmup_cycle = 0
        self._warm = warmup_instructions == 0

        self.cycle = 0
        self._fetch_seq = 0
        self._trace_exhausted = False
        self._fetch_blocked_on: Optional[_Inst] = None
        self._fetch_stall_until = 0
        self._last_fetch_block: Optional[int] = None

        self._frontend: Deque[_Inst] = deque()  # fetched, awaiting dispatch
        self._rob: Deque[_Inst] = deque()
        self._iq_used = 0
        self._last_writer: List[Optional[_Inst]] = [None] * NUM_REGISTERS

        self._ready: List = []  # heap of (time, seq, inst)
        self._events: List = []  # heap of (time, kind, seq, inst)
        #: Latest revised wake-up of any miss-discovered load. While
        #: ``cycle >= _revision_horizon`` — every instruction window with
        #: no pending slow load — the issue stage can skip the
        #: producer-revision re-check entirely: an unrevised producer's
        #: wake time is always folded into the consumer's ready time
        #: before it enters the ready heap.
        self._revision_horizon = 0
        self._fu_reserved: Dict[int, Dict[str, int]] = {}
        self._commit_count = 0
        self._last_commit_cycle = 0

        # statistics
        self.committed = 0
        self.issued = 0
        self.replay_count = 0
        self.branch_mispredicts = 0
        self.load_count = 0
        self.store_count = 0
        self.slow_way_hits = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _push_ready(self, inst: _Inst, time: int) -> None:
        inst.ready_time = max(inst.ready_time, time)
        heapq.heappush(self._ready, (inst.ready_time, inst.seq, inst))

    def _wake_consumers(self, inst: _Inst, wake_time: int) -> None:
        """Producer ``inst`` issued (or revised): wake waiting consumers."""
        inst.wake_time = wake_time
        for consumer in inst.waiters:
            if consumer.issued:
                continue
            consumer.remaining -= 1
            consumer.ready_time = max(consumer.ready_time, wake_time)
            if consumer.remaining <= 0:
                self._push_ready(consumer, consumer.ready_time)
        inst.waiters = []

    def _end_warmup(self) -> None:
        """Reset measurement counters once the warmup window commits.

        Cache *contents* are kept (that is the point of warming up); only
        the statistics are zeroed, and the CPI window starts here.
        """
        self._warm = True
        self.warmup_cycle = self.cycle
        self.replay_count = 0
        self.branch_mispredicts = 0
        self.load_count = 0
        self.store_count = 0
        self.slow_way_hits = 0
        self.issued = 0
        self.lbb.total_stalls = 0
        self.lbb.overflows = 0
        self.hierarchy.l1d.reset_statistics()
        self.hierarchy.l1i.reset_statistics()
        self.hierarchy.l2.reset_statistics()
        self.hierarchy.l2_accesses = 0
        self.hierarchy.memory_accesses = 0

    def _revise_load_wakeup(self, load: _Inst) -> None:
        """Miss discovered at the load's execute stage: re-wake consumers.

        Consumers that issued inside the shadow replay on their own; the
        rest are re-timed for the refill.
        """
        new_wake = max(load.done - self.config.sched_to_exec_stages, self.cycle + 1)
        load.wake_time = new_wake
        if new_wake > self._revision_horizon:
            self._revision_horizon = new_wake

    # ------------------------------------------------------------------
    # pipeline stages (called in reverse order each cycle)
    # ------------------------------------------------------------------
    def _do_commit(self) -> None:
        count = 0
        while (
            self._rob
            and count < self.config.commit_width
            and self._rob[0].completed
            and self._rob[0].done <= self.cycle
        ):
            self._rob.popleft()
            self.committed += 1
            self._last_commit_cycle = self.cycle
            count += 1
            if not self._warm and self.committed >= self.warmup_instructions:
                self._end_warmup()

    def _process_events(self) -> None:
        while self._events and self._events[0][0] <= self.cycle:
            _, kind, _, inst = heapq.heappop(self._events)
            if kind == 0:  # completion
                inst.completed = True
            else:  # miss discovery: revise consumer wake-up
                self._revise_load_wakeup(inst)

    def _issue_load(self, inst: _Inst, exec_start: int) -> int:
        """Access the hierarchy; returns the data-available cycle."""
        assert inst.address is not None
        access = self.hierarchy.data_access(inst.address, write=False)
        self.load_count += 1
        done = exec_start + access.latency
        predicted = self.config.predicted_load_latency
        if access.l1_hit and access.latency > predicted:
            # A 5-cycle way occupies its cache port one cycle longer,
            # blocking one memory issue slot next cycle.
            self.slow_way_hits += 1
            reserved = self._fu_reserved.setdefault(self.cycle + 1, {})
            reserved["mem"] = reserved.get("mem", 0) + 1
        if access.latency > predicted + self.config.lbb_slack:
            # Effectively a miss for the scheduler: consumers issued in
            # the shadow will replay; the rest are re-woken when the miss
            # is discovered at our execute stage.
            heapq.heappush(self._events, (exec_start, 1, inst.seq, inst))
        return done

    def _do_issue(self) -> None:
        # Load-bypass-buffer occupancy blocks the functional-unit input it
        # sits in front of, so reservations made by earlier stalls count
        # against this cycle's pool.
        cycle = self.cycle
        config = self.config
        ready = self._ready
        fu_kind = FU_KIND
        fu_pools = config.fu_pools
        issue_width = config.issue_width
        sched_stages = config.sched_to_exec_stages
        heappop = heapq.heappop
        # No pending slow load means no producer wake-up can have been
        # revised past this cycle — skip the re-check per pop.
        check_revised = self._revision_horizon > cycle
        fu_used: Dict[str, int] = self._fu_reserved.pop(cycle, {})
        issued = 0
        deferred: List[_Inst] = []
        while ready and issued < issue_width:
            time, _, inst = ready[0]
            if time > cycle:
                break
            heappop(ready)
            if inst.issued or time < inst.ready_time:
                continue  # stale heap entry
            # A producer's wake-up may have been revised after this entry
            # was queued (miss discovery): the scheduler was informed, so
            # re-time the consumer without spending an issue slot.
            if check_revised:
                revised = max(
                    (p.wake_time for p in inst.producers), default=0
                )
                if revised > cycle:
                    self._push_ready(inst, revised)
                    continue
            kind = fu_kind[inst.op]
            if fu_used.get(kind, 0) >= fu_pools[kind]:
                deferred.append(inst)
                continue

            # Will the data actually be there when we reach execute?
            exec_start = cycle + sched_stages
            data_ready = 0
            for producer in inst.producers:
                if not producer.issued:
                    raise SimulationError(
                        "consumer scheduled before its producer issued"
                    )
                data_ready = max(data_ready, producer.done)
            shortfall = data_ready - exec_start

            fu_used[kind] = fu_used.get(kind, 0) + 1
            issued += 1
            self.issued += 1

            if shortfall > 0:
                if shortfall > config.lbb_slack or not self.lbb.try_hold(
                    exec_start, shortfall
                ):
                    # Speculatively issued under a miss (or no buffer
                    # space): squash and replay when the data arrives.
                    self.replay_count += 1
                    inst.replays += 1
                    retry = max(data_ready - sched_stages, cycle + 1)
                    self._push_ready(inst, retry)
                    continue
                # Absorbed by a load-bypass buffer: the buffered operand
                # occupies this FU's input, blocking one issue of the same
                # kind next cycle.
                exec_start += shortfall
                reserved = self._fu_reserved.setdefault(cycle + 1, {})
                reserved[kind] = reserved.get(kind, 0) + 1

            inst.issued = True
            self._iq_used -= 1
            # If this instruction itself slipped into a bypass buffer, the
            # scheduler knows and delays its dependents by the same slip.
            slip = exec_start - (cycle + sched_stages)
            if inst.op is OpClass.LOAD:
                inst.done = self._issue_load(inst, exec_start)
                wake = cycle + config.predicted_load_latency + slip
            elif inst.op is OpClass.STORE:
                assert inst.address is not None
                self.hierarchy.data_access(inst.address, write=True)
                self.store_count += 1
                inst.done = exec_start + FU_LATENCIES[inst.op]
                wake = inst.done
            else:
                latency = FU_LATENCIES[inst.op]
                inst.done = exec_start + latency
                wake = inst.done - sched_stages
            heapq.heappush(self._events, (inst.done, 0, inst.seq, inst))
            self._wake_consumers(inst, wake)
            if inst.mispredicted:
                self.branch_mispredicts += 1
                self._fetch_stall_until = max(
                    self._fetch_stall_until, inst.done + 1
                )
                if self._fetch_blocked_on is inst:
                    self._fetch_blocked_on = None
        for inst in deferred:  # structural hazard: retry next cycle
            self._push_ready(inst, cycle + 1)

    def _do_dispatch(self) -> None:
        count = 0
        while (
            self._frontend
            and count < self.config.fetch_width
            and len(self._rob) < self.config.rob_size
            and self._iq_used < self.config.iq_size
        ):
            inst = self._frontend[0]
            if inst.fetch_cycle + self.config.frontend_stages > self.cycle:
                break
            self._frontend.popleft()
            self._rob.append(inst)
            self._iq_used += 1
            count += 1

            inst.ready_time = self.cycle + 1
            for src in inst.srcs:
                producer = self._last_writer[src]
                if producer is None or producer.completed:
                    continue
                inst.producers.append(producer)
                if producer.issued:
                    inst.ready_time = max(inst.ready_time, producer.wake_time)
                else:
                    inst.remaining += 1
                    producer.waiters.append(inst)
            if inst.dest is not None:
                self._last_writer[inst.dest] = inst
            if inst.remaining == 0:
                self._push_ready(inst, inst.ready_time)

    def _do_fetch(self) -> None:
        if self._fetch_blocked_on is not None:
            return
        if self.cycle < self._fetch_stall_until:
            return
        if self._trace_exhausted:
            return
        if len(self._frontend) >= 3 * self.config.fetch_width:
            return
        fetched = 0
        while fetched < self.config.fetch_width:
            try:
                raw = next(self._trace)
            except StopIteration:
                self._trace_exhausted = True
                break
            inst = _Inst(
                self._fetch_seq,
                raw.op,
                raw.dest,
                raw.srcs,
                raw.address,
                raw.pc,
                raw.mispredicted,
            )
            self._fetch_seq += 1
            fetched += 1

            # Instruction cache: pay the miss latency when entering a new
            # block; the 2-cycle hit latency is part of the front end.
            block = block_address(self.hierarchy.l1i.geometry, inst.pc)
            if block != self._last_fetch_block:
                self._last_fetch_block = block
                latency = self.hierarchy.instruction_fetch(inst.pc)
                extra = latency - self.hierarchy.config.l1i_latency
                if extra > 0:
                    self._fetch_stall_until = max(
                        self._fetch_stall_until, self.cycle + extra
                    )
            self._frontend.append(inst)
            inst.fetch_cycle = self.cycle
            if inst.mispredicted:
                self._fetch_blocked_on = inst
                break
            if self.cycle < self._fetch_stall_until:
                break

    # ------------------------------------------------------------------
    def _next_event_time(self) -> Optional[int]:
        """Earliest future cycle at which anything can happen."""
        candidates: List[int] = []
        if self._events:
            candidates.append(self._events[0][0])
        if self._ready:
            candidates.append(self._ready[0][0])
        if self._frontend:
            candidates.append(
                self._frontend[0].fetch_cycle + self.config.frontend_stages
            )
        if (
            not self._trace_exhausted
            and self._fetch_blocked_on is None
            and len(self._frontend) < 3 * self.config.fetch_width
        ):
            candidates.append(max(self._fetch_stall_until, self.cycle + 1))
        future = [c for c in candidates if c > self.cycle]
        return min(future) if future else None

    def run(self) -> None:
        """Simulate until every fetched instruction has committed."""
        while True:
            self._process_events()
            self._do_commit()
            self._do_issue()
            self._do_dispatch()
            self._do_fetch()
            if (
                self._trace_exhausted
                and not self._rob
                and not self._frontend
            ):
                break
            if self.cycle - self._last_commit_cycle > _DEADLOCK_LIMIT:
                raise SimulationError(
                    f"no commit for {_DEADLOCK_LIMIT} cycles "
                    f"(cycle {self.cycle}, committed {self.committed})"
                )
            nxt = self._next_event_time()
            self.cycle = nxt if nxt is not None else self.cycle + 1
            if self.cycle % 50_000 == 0:
                self.lbb.release_before(self.cycle)
