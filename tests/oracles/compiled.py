"""A compiled trace read back as instructions, and its content address.

``instructions`` decodes a :class:`~repro.workloads.compiled.CompiledTrace`
view into the ``TraceInstruction`` stream it was packed from, which is
what the oracle engine and the oracle cache replay; ``content_key`` is
a SHA-256 over the view's packed bytes, so tests can check that a prefix
view of a long compilation holds the same bytes as a short one. Both
were ``CompiledTrace`` members (``instructions`` and ``key``). Never
imported by ``src/``.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.uarch.isa import OpClass
from repro.uarch.trace import TraceInstruction

__all__ = ["content_key", "instructions"]

#: Op code -> class; the enum's definition order is the packed format.
_OP_TABLE = tuple(OpClass)


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
