"""Analytic circuit model of the 16 KB 4-way data cache (paper Section 3).

The paper builds an HSPICE netlist of a 16 KB, 4-way set-associative cache
following Amrutur and Horowitz, with 45 nm PTM device and interconnect
models, then re-simulates it 2000 times under sampled process parameters.
No SPICE engine is available here, so this subpackage substitutes a
first-order analytic model of the same address-to-data path:

* :mod:`repro.circuit.technology` — 45 nm technology constants and the
  calibration knobs of the analytic model.
* :mod:`repro.circuit.organization` — the physical organisation (4 ways x
  4 banks x 64x128 bits, divided bitlines).
* :mod:`repro.circuit.cache_model` — the model the kernel evaluates:
  the device floors, SRAM stage constants and driver sizing, and the
  zero-variation ``nominal`` reference.
* :mod:`repro.circuit.columnar` — the circuit kernel: alpha-power-law
  drive, gate-length threshold roll-off, subthreshold leakage, wire R/C
  with coupling, Elmore delay, the decoder chain, bitline, sense and
  output stages, over whole populations at once, into per-(way, band)
  delay and leakage columns.

The composed per-stage physics the kernel is held to bit for bit lives
in ``tests/oracles/circuit.py``.

The yield experiments depend only on the joint distribution of per-way
delay and leakage that this model induces, not on absolute picoseconds;
see DESIGN.md for the substitution argument.
"""

from repro.circuit.technology import Technology, TECH45
from repro.circuit.organization import CacheOrganization, PAPER_ORGANIZATION
from repro.circuit.cache_model import CacheCircuitModel

__all__ = [
    "Technology",
    "TECH45",
    "CacheOrganization",
    "PAPER_ORGANIZATION",
    "CacheCircuitModel",
]
