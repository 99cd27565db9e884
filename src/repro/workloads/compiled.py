"""Compiled workload traces: pack once, replay everywhere.

Every experiment sweeps many (chip, scheme) configurations over the
*same* per-(benchmark, seed) instruction stream, but the seed tree
regenerated that stream — and re-ran ``TraceInstruction`` validation —
once per simulation. This module lowers a generated trace into packed
stdlib :mod:`array` buffers exactly once and replays those buffers
through the simulation kernel:

* :class:`CompiledTrace` — column-packed instruction fields (op code,
  dest/src registers, data address, pc, mispredict flag), which the
  pipeline kernel reads by sequence number. Prefix views share the
  parent's buffers, which is what makes one long compiled trace serve
  every shorter request for the same ``(profile, seed)`` — the
  generator's draws are consumed one instruction at a time, so
  ``generate(n)`` is a strict prefix of ``generate(m)`` for ``n <= m``.
* :func:`get_compiled_trace` — the process-level cache keyed by
  ``(profile name, seed)``. Workers resolve the compiled-trace *key*
  shipped by the engine dispatch against this cache instead of
  regenerating the trace per job. Stats feed ``repro cache info``.
* :func:`trace_key` — the cheap identity key the engine puts in job
  dicts.

Compilation is wrapped in a ``ctrace.compile`` span and replay (in
:class:`repro.uarch.simulator.Simulator`) in ``ctrace.replay``, so
``repro trace flamegraph`` attributes time to compile vs replay.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from typing import Dict, Iterable, Optional, Tuple

from repro.core.validation import require_positive
from repro.obs.trace import span as trace_span
from repro.uarch.isa import OpClass
from repro.uarch.trace import TraceInstruction
from repro.workloads.profiles import BenchmarkProfile

__all__ = [
    "CompiledTrace",
    "compile_trace",
    "get_compiled_trace",
    "trace_key",
    "trace_cache_info",
    "clear_trace_cache",
]

#: Stable op encoding; the enum's definition order is part of the format.
OP_CODES: Dict[OpClass, int] = {op: code for code, op in enumerate(OpClass)}

#: ``-1`` marks "no register" / "no address" in the packed columns.
_NONE = -1


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
    @classmethod
    def from_instructions(
        cls,
        instructions: Iterable[TraceInstruction],
        profile_name: str = "custom",
        seed: int = 0,
    ) -> "CompiledTrace":
        """Pack an instruction stream (consumes the iterable)."""
        ops = array("b")
        dests = array("b")
        src0 = array("b")
        src1 = array("b")
        addresses = array("q")
        pcs = array("q")
        mispredicts = array("b")
        op_codes = OP_CODES
        for instr in instructions:
            ops.append(op_codes[instr.op])
            dests.append(_NONE if instr.dest is None else instr.dest)
            srcs = instr.srcs
            src0.append(srcs[0] if srcs else _NONE)
            src1.append(srcs[1] if len(srcs) > 1 else _NONE)
            addresses.append(
                _NONE if instr.address is None else instr.address
            )
            pcs.append(instr.pc)
            mispredicts.append(1 if instr.mispredicted else 0)
        return cls(
            profile_name, seed, ops, dests, src0, src1,
            addresses, pcs, mispredicts,
        )

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
# compilation and the process-level cache
# ----------------------------------------------------------------------
def compile_trace(
    profile: BenchmarkProfile, seed: int, length: int
) -> CompiledTrace:
    """Generate and pack ``length`` instructions (uncached)."""
    from repro.workloads.generator import TraceGenerator

    require_positive(length, "length")
    with trace_span(
        "ctrace.compile",
        profile=profile.name,
        seed=seed,
        instructions=length,
    ) as sp:
        compiled = CompiledTrace.from_instructions(
            TraceGenerator(profile, seed=seed).generate(length),
            profile_name=profile.name,
            seed=seed,
        )
        sp.set(bytes=compiled.nbytes)
    return compiled


_CACHE_LOCK = threading.Lock()
_TRACE_CACHE: Dict[Tuple[str, int], CompiledTrace] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def trace_key(profile_name: str, seed: int, length: int) -> str:
    """Identity key of the compiled trace for ``(profile, seed, length)``.

    Cheap to compute without compiling: generation is deterministic per
    ``(profile, seed)`` and ``generate(n)`` is a prefix of
    ``generate(m)``, so the identity fully determines the content. The
    engine ships this key to pool workers.
    """
    return hashlib.sha256(
        f"ctrace:{profile_name}:{seed}:{length}".encode("utf-8")
    ).hexdigest()


def get_compiled_trace(
    profile: BenchmarkProfile, seed: int, length: int
) -> CompiledTrace:
    """The compiled trace for ``(profile, seed)``, at least ``length`` long.

    Memoized per process: a cached compilation that is long enough is
    served as a shared-buffer prefix view; a longer request recompiles
    (the generator's prefix property keeps the overlap bit-identical)
    and replaces the cache entry. This is what fixes the old
    once-per-(chip, scheme) trace regeneration — within a worker
    process, each (benchmark, seed) stream is generated once.
    """
    require_positive(length, "length")
    cache_id = (profile.name, seed)
    with _CACHE_LOCK:
        cached = _TRACE_CACHE.get(cache_id)
        if cached is not None and len(cached.ops) >= length:
            _CACHE_STATS["hits"] += 1
            return cached.prefix(length)
        _CACHE_STATS["misses"] += 1
    compiled = compile_trace(profile, seed, length)
    with _CACHE_LOCK:
        current = _TRACE_CACHE.get(cache_id)
        if current is None or len(current.ops) < length:
            _TRACE_CACHE[cache_id] = compiled
    return compiled


def trace_cache_info() -> Dict[str, object]:
    """Snapshot of the process-level compiled-trace cache."""
    with _CACHE_LOCK:
        hits = _CACHE_STATS["hits"]
        misses = _CACHE_STATS["misses"]
        entries = len(_TRACE_CACHE)
        total_bytes = sum(t.nbytes for t in _TRACE_CACHE.values())
        instructions = sum(len(t.ops) for t in _TRACE_CACHE.values())
    lookups = hits + misses
    return {
        "entries": entries,
        "bytes": total_bytes,
        "instructions": instructions,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


def clear_trace_cache() -> int:
    """Drop every cached compiled trace; returns how many were held."""
    with _CACHE_LOCK:
        count = len(_TRACE_CACHE)
        _TRACE_CACHE.clear()
        _CACHE_STATS["hits"] = 0
        _CACHE_STATS["misses"] = 0
    return count
