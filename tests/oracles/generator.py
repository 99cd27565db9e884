"""Synthetic trace generation from benchmark profiles, one instruction
at a time.

This was ``repro.workloads.generator`` before traces were generated as
columns: production's ``repro.workloads.compiled.compile_trace`` draws
the same blocks in the same order and must fill the same seven buffers
that ``compiled.from_instructions(TraceGenerator(...).generate(n))``
packs, byte for byte. Never imported by ``src/``.

The generator emits a register-dependency-annotated dynamic instruction
stream whose statistics follow a :class:`BenchmarkProfile`:

* **Instruction mix** — loads, stores, branches, int/fp compute with the
  profile's multiply share.
* **Register dependencies** — each source register refers to the ``k``-th
  most recent producer, with ``k`` geometric(``dep_prob``): high
  ``dep_prob`` yields tight, low-ILP chains, which is what makes a
  1-cycle-later load hurt.
* **Data addresses** — a mixture of (a) sequential streams: several
  concurrent walkers striding through circular buffers, whose L1 miss
  ratio is ~``stride/block`` when the buffer outgrows the cache; (b)
  random references with power-law reuse over the working set; and (c)
  pointer chasing over a node region, where each chase load's address
  register is the previous chase load's destination, serialising them
  through the cache.
* **Program counters** — loop-structured: sequential fetch within a
  current loop body, occasional migrations across the code footprint
  (drives the L1I model without thrashing it).

Generation is deterministic per (profile, seed).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.core.rng import spawn
from repro.core.validation import require_positive
from repro.uarch.isa import OpClass
from repro.workloads.profiles import BenchmarkProfile

from .trace import TraceInstruction

__all__ = ["TraceGenerator"]

#: Registers reserved as pointer-chase address registers.
_CHASE_REGS = (28, 29, 30, 31)
#: General destination registers (round-robin).
_GP_REGS = tuple(range(28))
#: Number of concurrent stream walkers.
_NUM_STREAMS = 4
#: Data regions are disjoint per kind.
_STREAM_BASE = 0x1000_0000
_RANDOM_BASE = 0x2000_0000
_CHASE_BASE = 0x3000_0000
_CODE_BASE = 0x0040_0000
#: Pointer-chase node stride. Deliberately not a power of two (1.5 cache
#: blocks) so chase nodes spread over all sets instead of aliasing into
#: the even ones.
_CHASE_NODE = 96
#: Taken probability of a conditional branch.
_TAKEN_PROB = 0.4
#: Loop body size for the PC model (bytes) and migration probability.
_LOOP_BYTES = 1024
_LOOP_MIGRATE_PROB = 0.03
#: Probability that the next value-consuming instruction uses the most
#: recent load's result (load-to-use criticality).
_LOAD_USE_PROB = 0.85


class TraceGenerator:
    """Generates deterministic synthetic traces for one benchmark.

    Parameters
    ----------
    profile:
        The benchmark profile to imitate.
    seed:
        Experiment seed; combined with the profile name, so every
        (benchmark, seed) pair yields a stable trace.
    """

    def __init__(self, profile: BenchmarkProfile, seed: int = 2006) -> None:
        self.profile = profile
        self.seed = seed

    # ------------------------------------------------------------------
    def generate(self, length: int) -> Iterator[TraceInstruction]:
        """Yield ``length`` dynamic instructions."""
        require_positive(length, "length")
        p = self.profile
        rng = spawn(self.seed, f"trace-{p.name}")

        recent: List[int] = []  # recent destination registers, newest last
        gp_cursor = 0
        chase_cursor = 0
        # The profile's stream_buffer is the *total* streaming footprint,
        # split across the concurrent walkers (each walks its own region).
        # Walkers start at independent random offsets: lock-stepped
        # walkers would all sit in the same cache set at all times and
        # artificially demand one way per stream.
        stream_region = max(p.stream_buffer // _NUM_STREAMS, p.stream_stride)
        steps = max(stream_region // p.stream_stride, 1)
        stream_offsets = [
            int(rng.integers(0, steps)) * p.stream_stride
            for _ in range(_NUM_STREAMS)
        ]
        stream_cursor = 0
        ws_units = max(p.working_set // 8, 1)
        chase_nodes = max(p.chase_region // _CHASE_NODE, 1)
        pc = _CODE_BASE
        loop_base = _CODE_BASE
        loop_pos = 0

        batch = 8192
        u_kind = rng.random(batch)
        u_misc = rng.random(batch)
        u_addr = rng.random(batch)
        geo = rng.geometric(p.dep_prob, batch)
        cursor = 0

        last_load_dest: List[int] = []  # at most one pending load result

        def pick_sources(count: int) -> tuple:
            srcs = []
            for i in range(count):
                # Load-to-use bias: real code consumes a loaded value almost
                # immediately, which is what puts loads on the critical
                # path (and what VACA's extra cycle perturbs).
                if last_load_dest and float(u_misc[(cursor + i + 1) % batch]) < _LOAD_USE_PROB:
                    srcs.append(last_load_dest.pop())
                    continue
                if not recent:
                    srcs.append(_GP_REGS[0])
                    continue
                depth = int(geo[(cursor + i) % batch])
                srcs.append(recent[-min(depth, len(recent))])
            return tuple(srcs)

        def next_dest() -> int:
            nonlocal gp_cursor
            reg = _GP_REGS[gp_cursor % len(_GP_REGS)]
            gp_cursor += 1
            return reg

        def stream_address() -> int:
            nonlocal stream_cursor
            idx = stream_cursor % _NUM_STREAMS
            stream_cursor += 1
            offset = stream_offsets[idx]
            stream_offsets[idx] = (offset + p.stream_stride) % stream_region
            return _STREAM_BASE + idx * 0x0100_0000 + offset

        def random_address(draw: float) -> int:
            unit = int(ws_units * (draw**p.locality))
            return _RANDOM_BASE + (unit % ws_units) * 8

        emitted = 0
        while emitted < length:
            if cursor >= batch:
                u_kind = rng.random(batch)
                u_misc = rng.random(batch)
                u_addr = rng.random(batch)
                geo = rng.geometric(p.dep_prob, batch)
                cursor = 0
            kind = float(u_kind[cursor])
            misc = float(u_misc[cursor])
            addr_draw = float(u_addr[cursor])

            # Loop-structured PC: walk the body, wrap, rarely migrate.
            loop_pos = (loop_pos + 4) % _LOOP_BYTES
            pc = loop_base + loop_pos

            if kind < p.load_frac:
                if misc < p.stream_frac:
                    instr = TraceInstruction(
                        op=OpClass.LOAD,
                        dest=next_dest(),
                        srcs=pick_sources(1),
                        address=stream_address(),
                        pc=pc,
                    )
                elif misc < p.stream_frac + p.chase_frac:
                    # One serialized chain per chase register: chain k's
                    # next hop depends on chain k's previous hop, so the
                    # chains run in parallel with each other, like a real
                    # pointer workload walking several lists at once. The
                    # profile decides how many chains run concurrently.
                    reg = _CHASE_REGS[chase_cursor % p.chase_chains]
                    chase_cursor += 1
                    instr = TraceInstruction(
                        op=OpClass.LOAD,
                        dest=reg,
                        srcs=(reg,),
                        address=_CHASE_BASE
                        + int(addr_draw * chase_nodes) * _CHASE_NODE,
                        pc=pc,
                    )
                else:
                    instr = TraceInstruction(
                        op=OpClass.LOAD,
                        dest=next_dest(),
                        srcs=pick_sources(1),
                        address=random_address(addr_draw),
                        pc=pc,
                    )
                if instr.dest is not None:
                    recent.append(instr.dest)
                    last_load_dest.clear()
                    last_load_dest.append(instr.dest)
            elif kind < p.load_frac + p.store_frac:
                if addr_draw < p.stream_frac:
                    address = stream_address()
                else:
                    address = random_address(addr_draw)
                instr = TraceInstruction(
                    op=OpClass.STORE,
                    srcs=pick_sources(2),
                    address=address,
                    pc=pc,
                )
            elif kind < p.load_frac + p.store_frac + p.branch_frac:
                if addr_draw < _LOOP_MIGRATE_PROB:
                    loop_base = _CODE_BASE + (
                        int((addr_draw / _LOOP_MIGRATE_PROB) * p.code_footprint)
                        & ~(_LOOP_BYTES - 1)
                    ) % max(p.code_footprint, _LOOP_BYTES)
                    loop_pos = 0
                elif addr_draw < _TAKEN_PROB:
                    loop_pos = 0  # loop back-edge
                instr = TraceInstruction(
                    op=OpClass.BRANCH,
                    srcs=pick_sources(1),
                    pc=pc,
                    mispredicted=misc < p.mispredict_rate,
                )
            else:
                fp = misc < p.fp_frac
                mult = addr_draw < p.mult_frac
                if fp:
                    op = OpClass.FMULT if mult else OpClass.FALU
                else:
                    op = OpClass.IMULT if mult else OpClass.IALU
                dest = next_dest()
                instr = TraceInstruction(
                    op=op, dest=dest, srcs=pick_sources(2), pc=pc
                )
                recent.append(dest)

            if len(recent) > 64:
                del recent[: len(recent) - 64]
            cursor += 1
            emitted += 1
            yield instr
