"""Dynamic instruction records: one validated object per instruction.

This was ``repro.uarch.trace`` before traces were generated as columns.
The oracle generator and the oracle engine use it, and ``compiled.py``
packs it into, and decodes it out of, a compiled trace; hand-written
test traces are lists of it. Traces model the *correct path* only
(standard trace-driven practice): a mispredicted branch is marked, and
the pipeline charges the misprediction by stalling fetch until the
branch resolves. Never imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.errors import TraceError
from repro.uarch.isa import MEMORY_OPS, NUM_REGISTERS, OpClass

__all__ = ["TraceInstruction"]


@dataclass(frozen=True)
class TraceInstruction:
    """One dynamic instruction.

    Attributes
    ----------
    op:
        Operation class.
    dest:
        Destination architectural register, or ``None`` (stores,
        branches).
    srcs:
        Source architectural registers (0-2).
    address:
        Data address for loads/stores, else ``None``.
    pc:
        Instruction address (drives the L1I model).
    mispredicted:
        For branches: whether the branch predictor missed.
    """

    op: OpClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    address: Optional[int] = None
    pc: int = 0
    mispredicted: bool = False

    def __post_init__(self) -> None:
        if self.dest is not None and not 0 <= self.dest < NUM_REGISTERS:
            raise TraceError(f"dest register {self.dest} out of range")
        for src in self.srcs:
            if not 0 <= src < NUM_REGISTERS:
                raise TraceError(f"source register {src} out of range")
        if len(self.srcs) > 2:
            raise TraceError("at most two source registers are supported")
        if self.op in MEMORY_OPS and self.address is None:
            raise TraceError(f"{self.op.value} needs a data address")
        if self.op not in MEMORY_OPS and self.address is not None:
            raise TraceError(f"{self.op.value} must not carry a data address")
        if self.mispredicted and self.op is not OpClass.BRANCH:
            raise TraceError("only branches can be mispredicted")
        if self.op is OpClass.STORE and self.dest is not None:
            raise TraceError("stores do not write a register")
