"""Compiled workload traces: generated as columns, replayed everywhere.

The paper's performance experiments sweep many (chip, scheme)
configurations over the *same* per-(benchmark, seed) instruction
stream. This module generates that stream once, straight into packed
stdlib :mod:`array` buffers, and the simulation kernel replays those
buffers:

* :func:`compile_trace` — the trace generator. It makes the draws of a
  :class:`BenchmarkProfile`'s synthetic workload and fills the seven
  columns with NumPy, one draw block at a time: every column is a
  prefix sum or index arithmetic over the draws (the op class, the loop
  pc, the stream walkers' round robin, the chase and general-purpose
  destinations, each source as "the k-th previous producer"), and so is
  the one pending load-to-use register. :func:`check_columns` then
  checks every row on whole columns, because the kernel trusts them.
* :class:`CompiledTrace` — the column-packed instruction fields (op
  code, dest/src registers, data address, pc, mispredict flag), which
  the pipeline kernel reads by sequence number. Prefix views share the
  parent's buffers: instruction ``i`` depends only on the draws made up
  to it, so ``compile_trace(n)`` is a byte prefix of
  ``compile_trace(m)`` for ``n <= m``, and one long compilation serves
  every shorter request for the same ``(profile, seed)``.
* :func:`get_compiled_trace` — the process-level cache keyed by
  ``(profile name, seed)``, least recently used first out under a fixed
  byte budget (:data:`TRACE_CACHE_BUDGET`). Stats feed ``repro cache
  info`` and serve's ``/healthz``.

The generator draws, from ``spawn(seed, "trace-<profile>")``: the four
stream walkers' start offsets (``integers(0, steps)`` each), then per
block of 8192 instructions ``random`` x3 (``u_kind``, ``u_misc``,
``u_addr``) and ``geometric(dep_prob)`` (``geo``), a trace of ``n``
instructions drawing ``ceil(n / 8192)`` blocks, of which the last keeps
only the draws the trace reads. DESIGN.md lists the byte-level rules a
rewrite must keep; the per-instruction generator it was derived from is
the oracle in ``tests/oracles/generator.py``.

Compilation is wrapped in a ``ctrace.compile`` span and replay (in
:class:`repro.uarch.simulator.Simulator`) in ``ctrace.replay``, so
``repro trace flamegraph`` attributes time to compile vs replay.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.errors import TraceError
from repro.core.rng import spawn
from repro.core.validation import require_positive
from repro.obs.trace import span as trace_span
from repro.uarch.isa import NUM_REGISTERS, OpClass
from repro.workloads.profiles import BenchmarkProfile

__all__ = [
    "CompiledTrace",
    "TRACE_CACHE_BUDGET",
    "check_columns",
    "compile_trace",
    "get_compiled_trace",
    "trace_cache_info",
    "clear_trace_cache",
]

#: Stable op encoding; the enum's definition order is part of the format.
OP_CODES: Dict[OpClass, int] = {op: code for code, op in enumerate(OpClass)}
_LOAD = OP_CODES[OpClass.LOAD]
_STORE = OP_CODES[OpClass.STORE]
_BRANCH = OP_CODES[OpClass.BRANCH]
#: A compute op's code by ``2 * fp + mult``.
_COMPUTE_OPS = np.array([
    OP_CODES[OpClass.IALU], OP_CODES[OpClass.IMULT],
    OP_CODES[OpClass.FALU], OP_CODES[OpClass.FMULT],
])

#: ``-1`` marks "no register" / "no address" in the packed columns.
_NONE = -1

#: Registers reserved as pointer-chase address registers.
_CHASE_REGS = np.array((28, 29, 30, 31))
#: General destination registers 0..27, taken round robin.
_GP_REGS = 28
#: Number of concurrent stream walkers.
_NUM_STREAMS = 4
#: Data regions are disjoint per kind; each stream walker has its own.
_STREAM_BASE = 0x1000_0000
_STREAM_SPAN = 0x0100_0000
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
#: Probability that a source reads the pending load's result
#: (load-to-use criticality).
_LOAD_USE_PROB = 0.85
#: Instructions per draw block.
_BLOCK = 8192
#: How far back a source may reach, in producers.
_WINDOW = 64
#: The packed columns' array typecodes, in ``CompiledTrace`` order.
_TYPECODES = ("b", "b", "b", "b", "q", "q", "b")


class CompiledTrace:
    """A workload trace lowered to packed, column-major buffers.

    Instances are immutable in practice: the arrays are filled once at
    compile time and only read afterwards. :meth:`prefix` returns a view
    sharing the same buffers with a shorter ``length``.
    """

    __slots__ = (
        "profile_name",
        "seed",
        "length",
        "ops",
        "dests",
        "src0",
        "src1",
        "addresses",
        "pcs",
        "mispredicts",
    )

    def __init__(
        self,
        profile_name: str,
        seed: int,
        ops: array,
        dests: array,
        src0: array,
        src1: array,
        addresses: array,
        pcs: array,
        mispredicts: array,
        length: Optional[int] = None,
    ) -> None:
        self.profile_name = profile_name
        self.seed = seed
        self.ops = ops
        self.dests = dests
        self.src0 = src0
        self.src1 = src1
        self.addresses = addresses
        self.pcs = pcs
        self.mispredicts = mispredicts
        self.length = len(ops) if length is None else length

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes held by the packed instruction buffers."""
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self.ops, self.dests, self.src0, self.src1,
                self.addresses, self.pcs, self.mispredicts,
            )
        )

    def prefix(self, length: int) -> "CompiledTrace":
        """A view of the first ``length`` instructions (shared buffers)."""
        require_positive(length, "length")
        if length > len(self.ops):
            raise ValueError(
                f"prefix of {length} instructions requested from a "
                f"compiled trace of {len(self.ops)}"
            )
        if length == self.length:
            return self
        return CompiledTrace(
            self.profile_name, self.seed,
            self.ops, self.dests, self.src0, self.src1,
            self.addresses, self.pcs, self.mispredicts,
            length=length,
        )


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _before(mask: np.ndarray) -> np.ndarray:
    """Per row, how many earlier rows are set in ``mask``."""
    counts = np.cumsum(mask)
    counts -= mask
    return counts


def _uniforms(rng, count: int) -> np.ndarray:
    """One block's uniforms, as far as ``count`` rows; the rest of the
    block is skipped, not drawn."""
    count = min(count, _BLOCK)
    values = rng.random(count)
    if count < _BLOCK:
        # One 64-bit step per double, so the next draw is where a whole
        # block would have left the stream.
        rng.bit_generator.advance(_BLOCK - count)
    return values


class _Blocks:
    """Fills the columns one draw block at a time.

    A block's source draws wrap inside the block, so a block is the
    natural unit: what one block hands the next is only the counters
    and registers below, and the NumPy temporaries stay one block long
    whatever the trace length.
    """

    def __init__(self, profile: BenchmarkProfile, rng) -> None:
        p = self.profile = profile
        # The profile's stream_buffer is the *total* streaming
        # footprint, split across the walkers, which start at
        # independent offsets.
        self.stream_region = max(
            p.stream_buffer // _NUM_STREAMS, p.stream_stride
        )
        steps = max(self.stream_region // p.stream_stride, 1)
        self.starts = np.array([
            int(rng.integers(0, steps)) * p.stream_stride
            for _ in range(_NUM_STREAMS)
        ])
        self.gp = 0  # GP destinations handed out
        self.chases = 0  # chase loads
        self.walks = 0  # stream accesses
        self.seen = 0  # producers (loads and compute ops)
        self.recent = np.zeros(0, dtype=np.int64)  # their last registers
        self.pending = _NONE  # the load register no source read yet
        self.restart = -1  # the last taken branch
        self.base = _CODE_BASE  # the loop body's base

    def block(self, first: int, kind, misc, addr, geo):
        """Columns of instructions ``[first, first + len(kind))``, from
        their block's draws: ``misc`` and ``geo`` reach as far as the
        block's sources read, past the last row."""
        p = self.profile
        rows = kind.size
        index = np.arange(first, first + rows)
        k, m, a = kind, misc[:rows], addr

        # -- op class and kind of access
        is_load = k < p.load_frac
        below_store = k < p.load_frac + p.store_frac
        below_branch = k < p.load_frac + p.store_frac + p.branch_frac
        is_store = below_store & ~is_load
        is_branch = below_branch & ~below_store
        is_compute = ~below_branch
        stream_load = is_load & (m < p.stream_frac)
        chase = is_load & ~stream_load & (m < p.stream_frac + p.chase_frac)
        random_load = is_load & ~(stream_load | chase)
        stream_store = is_store & (a < p.stream_frac)
        compute_ops = _COMPUTE_OPS[2 * (m < p.fp_frac) + (a < p.mult_frac)]
        ops = np.where(
            is_load, _LOAD,
            np.where(is_store, _STORE,
                     np.where(is_branch, _BRANCH, compute_ops)),
        )

        # -- destinations: round robin over the GP and the chase registers
        dests = np.full(rows, _NONE)
        gp = stream_load | random_load | is_compute
        dests[gp] = (self.gp + _before(gp)[gp]) % _GP_REGS
        dests[chase] = _CHASE_REGS[
            (self.chases + _before(chase)[chase]) % p.chase_chains
        ]

        # -- sources, one slot each in pick order: loads (not chase
        # loads) and branches pick one, stores and compute ops two.
        slots = np.where(is_store | is_compute, 2, np.where(chase, 0, 1))
        owner = np.repeat(np.arange(rows), slots)
        which = np.arange(owner.size) - (np.cumsum(slots) - slots)[owner]
        # Slot i of block position j reads the next instruction's u_misc
        # and its own geo, both wrapping inside the block.
        use_draw = misc[(owner + which + 1) % _BLOCK]
        depth = geo[(owner + which) % _BLOCK]
        # The k-th previous producer, k = geo clamped to the producers
        # seen and the window; register 0 before the first producer.
        producer = is_load | is_compute
        seen = self.seen + _before(producer)[owner]
        reach = np.minimum(depth, np.minimum(seen, _WINDOW))
        history = np.concatenate(([0], self.recent, dests[producer]))
        oldest = self.seen - self.recent.size
        srcs = history[np.where(seen > 0, seen - reach - oldest + 1, 0)]
        # Every load leaves its register pending once its own source is
        # picked; the first slot after it with a draw under
        # _LOAD_USE_PROB, up to and including the next load's own slot,
        # reads it instead. Group 0 is the load pending from before.
        group = _before(is_load)[owner]
        registers = np.concatenate(([self.pending], dests[is_load]))
        takers = np.flatnonzero(
            (use_draw < _LOAD_USE_PROB) & (registers[group] != _NONE)
        )
        taken_group = group[takers]
        first_taker = np.ones(takers.size, dtype=bool)
        first_taker[1:] = taken_group[1:] != taken_group[:-1]
        srcs[takers[first_taker]] = registers[taken_group[first_taker]]
        src0 = np.full(rows, _NONE)
        src1 = np.full(rows, _NONE)
        src0[owner[which == 0]] = srcs[which == 0]
        src1[owner[which == 1]] = srcs[which == 1]
        src0[chase] = dests[chase]

        # -- data addresses
        addresses = np.full(rows, _NONE)
        walking = stream_load | stream_store
        walk = self.walks + _before(walking)[walking]
        walker = walk % _NUM_STREAMS
        addresses[walking] = (
            _STREAM_BASE + walker * _STREAM_SPAN
            + (self.starts[walker] + walk // _NUM_STREAMS * p.stream_stride)
            % self.stream_region
        )
        randomly = random_load | (is_store & ~stream_store)
        ws_units = max(p.working_set // 8, 1)
        # libm pow through Python's ``**``: np.power does not round like it.
        reuse = np.array(
            [draw ** p.locality for draw in a[randomly].tolist()]
        )
        units = (ws_units * reuse).astype(np.int64)
        addresses[randomly] = _RANDOM_BASE + units % ws_units * 8
        chase_nodes = max(p.chase_region // _CHASE_NODE, 1)
        addresses[chase] = (
            _CHASE_BASE
            + (a[chase] * chase_nodes).astype(np.int64) * _CHASE_NODE
        )

        # -- pcs: a loop body walked 4 bytes at a time; a taken branch
        # restarts it, a migrating one moves it, both from the next
        # instruction on.
        taken = is_branch & (a < _TAKEN_PROB)
        migrate = is_branch & (a < _LOOP_MIGRATE_PROB)
        restarts = np.concatenate(([self.restart], index[taken]))
        footprint = p.code_footprint
        bases = np.concatenate(([self.base], _CODE_BASE + (
            (a[migrate] / _LOOP_MIGRATE_PROB * footprint).astype(np.int64)
            & ~(_LOOP_BYTES - 1)
        ) % max(footprint, _LOOP_BYTES)))
        pcs = (
            bases[_before(migrate)]
            + 4 * (index - restarts[_before(taken)]) % _LOOP_BYTES
        )
        mispredicts = is_branch & (m < p.mispredict_rate)

        # -- what the next block starts from
        self.gp += int(np.count_nonzero(gp))
        self.chases += int(np.count_nonzero(chase))
        self.walks += walk.size
        self.seen += int(np.count_nonzero(producer))
        self.recent = history[1:][-_WINDOW:].copy()
        # The block's last load stays pending unless a slot read it.
        read = taken_group[first_taker]
        last = registers.size - 1
        self.pending = (
            _NONE if read.size and read[-1] == last else int(registers[last])
        )
        self.restart = int(restarts[-1])
        self.base = int(bases[-1])
        return ops, dests, src0, src1, addresses, pcs, mispredicts


def _generate(profile: BenchmarkProfile, seed: int, length: int):
    """The seven columns of ``length`` instructions, as NumPy arrays of
    their packed types."""
    rng = spawn(seed, f"trace-{profile.name}")
    blocks = _Blocks(profile, rng)
    columns = tuple(
        np.empty(length, dtype=np.int64 if code == "q" else np.int8)
        for code in _TYPECODES
    )
    for first in range(0, length, _BLOCK):
        rows = min(_BLOCK, length - first)
        # Each block keeps only the draws its rows read: a source slot
        # reads u_misc up to two rows on and geo one row on.
        kind = _uniforms(rng, rows)
        misc = _uniforms(rng, rows + 2)
        addr = _uniforms(rng, rows)
        geo = rng.geometric(profile.dep_prob, min(_BLOCK, rows + 1))
        filled = blocks.block(first, kind, misc, addr, geo)
        for column, values in zip(columns, filled):
            column[first:first + rows] = values
    return columns


def check_columns(ops, dests, src0, src1, addresses, mispredicts) -> None:
    """Raise :class:`TraceError` unless every row is a valid instruction.

    The rules an instruction record always kept, checked on whole
    columns: registers within ``NUM_REGISTERS`` (or none), an address
    on exactly the loads and stores, no register written by a store and
    a misprediction only on a branch.
    """
    memory = (ops == _LOAD) | (ops == _STORE)
    for bad, problem in (
        ((ops < 0) | (ops >= len(OP_CODES)), "unknown op code"),
        ((dests < _NONE) | (dests >= NUM_REGISTERS),
         "dest register out of range"),
        ((src0 < _NONE) | (src0 >= NUM_REGISTERS)
         | (src1 < _NONE) | (src1 >= NUM_REGISTERS),
         "source register out of range"),
        (memory & (addresses < 0), "a load or store needs a data address"),
        (~memory & (addresses != _NONE),
         "only loads and stores carry a data address"),
        ((ops == _STORE) & (dests != _NONE), "stores do not write a register"),
        ((mispredicts != 0) & (ops != _BRANCH),
         "only branches can be mispredicted"),
    ):
        if bad.any():
            raise TraceError(f"instruction {int(np.argmax(bad))}: {problem}")


def compile_trace(
    profile: BenchmarkProfile, seed: int, length: int
) -> CompiledTrace:
    """Generate, check and pack ``length`` instructions (uncached)."""
    require_positive(length, "length")
    with trace_span(
        "ctrace.compile",
        profile=profile.name,
        seed=seed,
        instructions=length,
    ) as sp:
        ops, dests, src0, src1, addresses, pcs, mispredicts = _generate(
            profile, seed, length
        )
        check_columns(ops, dests, src0, src1, addresses, mispredicts)
        compiled = CompiledTrace(profile.name, seed, *(
            array(code, column.tobytes())
            for code, column in zip(_TYPECODES, (
                ops, dests, src0, src1, addresses, pcs, mispredicts,
            ))
        ))
        sp.set(bytes=compiled.nbytes)
    return compiled


# ----------------------------------------------------------------------
# the process-level cache
# ----------------------------------------------------------------------
#: Bytes of compiled traces one process keeps. ``repro all`` at the
#: committed window holds 24 traces of 50,000 instructions, about 25 MB
#: at 21 bytes per instruction, and evicts none of them.
TRACE_CACHE_BUDGET = 32 * 1024 * 1024

_CACHE_LOCK = threading.Lock()
_TRACE_CACHE: "OrderedDict[Tuple[str, int], CompiledTrace]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0}


def get_compiled_trace(
    profile: BenchmarkProfile, seed: int, length: int
) -> CompiledTrace:
    """The compiled trace for ``(profile, seed)``, at least ``length`` long.

    Memoized per process: a cached compilation that is long enough is
    served as a shared-buffer prefix view, and counts as the most
    recent use; a longer request recompiles (the prefix property keeps
    the overlap byte-identical) and replaces the cache entry. New
    entries evict the least recently used ones until the cache fits
    :data:`TRACE_CACHE_BUDGET`; a trace larger than the whole budget is
    returned without being cached.
    """
    require_positive(length, "length")
    cache_id = (profile.name, seed)
    with _CACHE_LOCK:
        cached = _TRACE_CACHE.get(cache_id)
        if cached is not None and len(cached.ops) >= length:
            _TRACE_CACHE.move_to_end(cache_id)
            _CACHE_STATS["hits"] += 1
            return cached.prefix(length)
        _CACHE_STATS["misses"] += 1
    compiled = compile_trace(profile, seed, length)
    size = compiled.nbytes
    with _CACHE_LOCK:
        current = _TRACE_CACHE.get(cache_id)
        if size <= TRACE_CACHE_BUDGET and (
            current is None or len(current.ops) < length
        ):
            if current is not None:
                _CACHE_STATS["bytes"] -= current.nbytes
            _TRACE_CACHE[cache_id] = compiled
            _TRACE_CACHE.move_to_end(cache_id)
            _CACHE_STATS["bytes"] += size
            while _CACHE_STATS["bytes"] > TRACE_CACHE_BUDGET:
                _, evicted = _TRACE_CACHE.popitem(last=False)
                _CACHE_STATS["bytes"] -= evicted.nbytes
                _CACHE_STATS["evictions"] += 1
    return compiled


def trace_cache_info() -> Dict[str, object]:
    """Snapshot of the process-level compiled-trace cache."""
    with _CACHE_LOCK:
        hits = _CACHE_STATS["hits"]
        misses = _CACHE_STATS["misses"]
        entries = len(_TRACE_CACHE)
        total_bytes = _CACHE_STATS["bytes"]
        instructions = sum(len(t.ops) for t in _TRACE_CACHE.values())
        evictions = _CACHE_STATS["evictions"]
    lookups = hits + misses
    return {
        "entries": entries,
        "bytes": total_bytes,
        "instructions": instructions,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
        "evictions": evictions,
    }


def clear_trace_cache() -> int:
    """Drop every cached compiled trace; returns how many were held."""
    with _CACHE_LOCK:
        count = len(_TRACE_CACHE)
        _TRACE_CACHE.clear()
        for name in _CACHE_STATS:
            _CACHE_STATS[name] = 0
    return count
