"""Operation classes of the trace ISA.

The simulator is trace-driven; instructions carry an operation class that
determines which functional unit executes them and with what latency. The
classes and latencies follow SimpleScalar's defaults for a 4-wide core.
"""

from __future__ import annotations

import enum
from typing import Dict

__all__ = [
    "OpClass", "FU_LATENCIES", "FU_KIND", "MEMORY_OPS", "NUM_REGISTERS",
]

#: Number of architectural registers the traces may reference.
NUM_REGISTERS = 32


class OpClass(enum.Enum):
    """Dynamic operation classes."""

    IALU = "int-alu"
    IMULT = "int-mult"
    FALU = "fp-alu"
    FMULT = "fp-mult"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


#: Execute latency (cycles) per class. Loads add the cache latency on top
#: of their address-generation cycle; stores retire through the store
#: buffer after one cycle.
FU_LATENCIES: Dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMULT: 3,
    OpClass.FALU: 2,
    OpClass.FMULT: 4,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
}

#: Functional-unit pool each class issues to (pool sizes live in
#: :class:`repro.uarch.config.CoreConfig`).
FU_KIND: Dict[OpClass, str] = {
    OpClass.IALU: "ialu",
    OpClass.IMULT: "imult",
    OpClass.FALU: "falu",
    OpClass.FMULT: "fmult",
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
    OpClass.BRANCH: "ialu",
}

#: Classes that touch the data memory hierarchy.
MEMORY_OPS = frozenset({OpClass.LOAD, OpClass.STORE})
