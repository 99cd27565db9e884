"""Compiled traces packed from, and read back as, instructions.

``from_instructions`` packs a ``TraceInstruction`` stream into a
:class:`~repro.workloads.compiled.CompiledTrace`, one validated object
per instruction; it was ``CompiledTrace.from_instructions``, and with
the oracle generator it is what production's column generator must
reproduce byte for byte. Hand-written test traces reach the simulator
through it. ``instructions`` decodes a compiled trace view into the
``TraceInstruction`` stream it was packed from, which is what the
oracle engine and the oracle cache replay; ``content_key`` is a SHA-256
over the view's packed bytes, so tests can check that a prefix view of
a long compilation holds the same bytes as a short one. Both were
``CompiledTrace`` members (``instructions`` and ``key``). Never imported
by ``src/``.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterable, Iterator

from repro.uarch.isa import OpClass
from repro.workloads.compiled import CompiledTrace

from .trace import TraceInstruction

__all__ = ["content_key", "from_instructions", "instructions"]

#: Op code -> class; the enum's definition order is the packed format.
_OP_TABLE = tuple(OpClass)
_OP_CODES = {op: code for code, op in enumerate(_OP_TABLE)}

#: ``-1`` marks "no register" / "no address" in the packed columns.
_NONE = -1


def from_instructions(
    instructions: Iterable[TraceInstruction],
    profile_name: str = "custom",
    seed: int = 0,
) -> CompiledTrace:
    """Pack an instruction stream (consumes the iterable)."""
    ops = array("b")
    dests = array("b")
    src0 = array("b")
    src1 = array("b")
    addresses = array("q")
    pcs = array("q")
    mispredicts = array("b")
    for instr in instructions:
        ops.append(_OP_CODES[instr.op])
        dests.append(_NONE if instr.dest is None else instr.dest)
        srcs = instr.srcs
        src0.append(srcs[0] if srcs else _NONE)
        src1.append(srcs[1] if len(srcs) > 1 else _NONE)
        addresses.append(_NONE if instr.address is None else instr.address)
        pcs.append(instr.pc)
        mispredicts.append(1 if instr.mispredicted else 0)
    return CompiledTrace(
        profile_name, seed, ops, dests, src0, src1,
        addresses, pcs, mispredicts,
    )


def instructions(trace) -> Iterator[TraceInstruction]:
    """The (validated) instruction objects of a compiled trace view."""
    for i in range(trace.length):
        s0 = trace.src0[i]
        s1 = trace.src1[i]
        dest = trace.dests[i]
        address = trace.addresses[i]
        yield TraceInstruction(
            op=_OP_TABLE[trace.ops[i]],
            dest=None if dest < 0 else dest,
            srcs=() if s0 < 0 else ((s0,) if s1 < 0 else (s0, s1)),
            address=None if address < 0 else address,
            pc=trace.pcs[i],
            mispredicted=bool(trace.mispredicts[i]),
        )


def content_key(trace) -> str:
    """SHA-256 over the first ``trace.length`` entries of every buffer."""
    digest = hashlib.sha256()
    digest.update(f"ctrace-content:{trace.length}:".encode("utf-8"))
    n = trace.length
    for arr in (
        trace.ops, trace.dests, trace.src0, trace.src1,
        trace.addresses, trace.pcs, trace.mispredicts,
    ):
        digest.update(arr.tobytes() if n == len(arr) else arr[:n].tobytes())
    return digest.hexdigest()
