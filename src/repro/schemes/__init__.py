"""The paper's yield-aware cache schemes (Section 4).

Every scheme's ``decide`` says which chips of a population's
:class:`~repro.yieldmodel.classify.ChipColumns` can be shipped, and in
what configuration, as :class:`~repro.schemes.base.Decisions` (one row
per chip):

* :class:`~repro.schemes.yapd.YAPD` — power down one delay- or
  leakage-offending vertical way (Selective Cache Ways + Gated-Vdd).
* :class:`~repro.schemes.hyapd.HYAPD` — power down one *horizontal* band
  across all ways (requires the H-YAPD cache organisation).
* :class:`~repro.schemes.vaca.VACA` — keep slow ways enabled at 5 cycles
  using load-bypass buffers; cannot fix leakage.
* :class:`~repro.schemes.hybrid.Hybrid` / ``HybridHorizontal`` — VACA plus
  at most one (vertical / horizontal) power-down.
* :class:`~repro.schemes.binning.NaiveBinning` — the Section 4.5 baseline:
  re-bin the whole cache at a uniformly higher latency.
* :class:`~repro.schemes.vaca.DeepVACA` — multi-entry load-bypass
  buffers (the paper's discussed-and-rejected extension).
* :mod:`repro.schemes.sensors` — on-die leakage-sensor measurement layer
  for studying the paper's in-the-field deployment story.
"""

from repro.schemes.base import Decisions, Scheme
from repro.schemes.yapd import YAPD
from repro.schemes.hyapd import HYAPD
from repro.schemes.vaca import DeepVACA, VACA
from repro.schemes.hybrid import Hybrid, HybridHorizontal
from repro.schemes.binning import NaiveBinning

__all__ = [
    "Decisions",
    "Scheme",
    "YAPD",
    "HYAPD",
    "VACA",
    "DeepVACA",
    "Hybrid",
    "HybridHorizontal",
    "NaiveBinning",
]
