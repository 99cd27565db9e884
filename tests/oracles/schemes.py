"""The paper schemes' per-chip ``rescue`` bodies before the array
decisions replaced them.

Each class is the original verbatim: ``rescue`` and the helpers it
calls, over the ``ChipCase`` interface (facts, ``max_leakage_way``,
``leakage_after_disabling_way``, ``way_cycles_without_band`` and the
circuit's per-way results). ``OracleScheme`` carries the original
``Scheme`` base's ``_pass_through`` and ``_lost``, and every outcome is
a ``RescueOutcome``, the original outcome type verbatim. Only the base
class, the imports, the circuit helpers (``band_array_leakage``,
``total_peripheral_leakage`` and ``delay_without_band``, once circuit
methods, now functions of ``.classify``) and the constraint checks
(``meets_delay`` and ``meets_leakage``, once ``YieldConstraints``
methods, now functions of ``.classify``) differ from the originals.
Never imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.validation import require_in_range
from repro.yieldmodel.classify import VACA_MAX_CYCLES
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

from .classify import (
    ChipCase,
    band_array_leakage,
    delay_without_band,
    meets_delay,
    meets_leakage,
    total_peripheral_leakage,
)

__all__ = [
    "DeepVACA",
    "HYAPD",
    "Hybrid",
    "HybridHorizontal",
    "NaiveBinning",
    "RescueOutcome",
    "VACA",
    "YAPD",
]


@dataclass(frozen=True)
class RescueOutcome:
    """Result of applying a scheme to one failing (or passing) chip.

    Attributes
    ----------
    scheme:
        Name of the scheme that produced this outcome.
    saved:
        True when the chip meets all constraints after the rescue.
    configuration:
        The chip's *pre-rescue* Table 6 way-latency key (e.g. ``"3-1-0"``),
        recorded so saved chips can be grouped by configuration.
    disabled_way:
        Index of the powered-down vertical way, if any.
    disabled_band:
        Index of the powered-down horizontal band, if any.
    way_cycles:
        Post-rescue access cycles per way; ``None`` entries are disabled
        ways. ``None`` overall when the chip is lost.
    note:
        Human-readable explanation (why lost, or what was done).
    """

    scheme: str
    saved: bool
    configuration: str
    disabled_way: Optional[int] = None
    disabled_band: Optional[int] = None
    way_cycles: Optional[Tuple[Optional[int], ...]] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.disabled_way is not None and self.disabled_band is not None:
            raise ConfigurationError(
                "a rescue cannot disable both a way and a band"
            )
        if self.saved and self.way_cycles is None:
            raise ConfigurationError("a saved chip must carry its way cycles")

    @property
    def enabled_ways(self) -> Tuple[int, ...]:
        """Indices of ways still powered after the rescue."""
        if self.way_cycles is None:
            return ()
        return tuple(
            w for w, cycles in enumerate(self.way_cycles) if cycles is not None
        )

    @property
    def max_cycles(self) -> Optional[int]:
        """Slowest enabled way's latency, or None when lost."""
        if self.way_cycles is None:
            return None
        enabled = [c for c in self.way_cycles if c is not None]
        return max(enabled) if enabled else None


class OracleScheme:
    """The original ``Scheme`` base's shared helpers."""

    #: Display name used in tables; subclasses override.
    name: str = "scheme"

    def _pass_through(self, case: ChipCase) -> RescueOutcome:
        """Outcome for a chip that needs no intervention."""
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            way_cycles=case.way_cycles,
            note="meets all constraints unmodified",
        )

    def _lost(self, case: ChipCase, note: str) -> RescueOutcome:
        """Outcome for a chip the scheme cannot save."""
        return RescueOutcome(
            scheme=self.name,
            saved=False,
            configuration=case.configuration,
            note=note,
        )


class YAPD(OracleScheme):
    """Power down one vertical way to fix a delay or leakage violation."""

    name = "YAPD"

    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)

        target = self._pick_target(case)
        if target is None:
            return self._lost(case, self._loss_note(case))

        # Re-check both constraints with the target way gated off.
        remaining_delay_ok = all(
            meets_delay(case.constraints, way.delay)
            for way in case.circuit.ways
            if way.way != target
        )
        leakage_ok = meets_leakage(
            case.constraints, case.leakage_after_disabling_way(target)
        )
        if not (remaining_delay_ok and leakage_ok):
            return self._lost(case, self._loss_note(case))

        way_cycles = tuple(
            None if w == target else BASE_ACCESS_CYCLES
            for w in range(case.circuit.num_ways)
        )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            disabled_way=target,
            way_cycles=way_cycles,
            note=f"disabled way {target}",
        )

    # ------------------------------------------------------------------
    def _pick_target(self, case: ChipCase) -> Optional[int]:
        """Choose the single way to gate off, or None when impossible."""
        violators = case.delay_violating_ways
        if len(violators) > 1:
            return None
        if violators:
            # A single slow way: it must go. If leakage is also violated,
            # the subsequent feasibility check decides whether removing
            # this way suffices.
            return violators[0]
        # Leakage-only violation: remove the leakiest way.
        return case.max_leakage_way()

    def _loss_note(self, case: ChipCase) -> str:
        violators = case.delay_violating_ways
        if len(violators) > 1:
            return f"{len(violators)} ways violate delay; only one may be disabled"
        if case.leakage_violation:
            return "leakage remains above limit after disabling one way"
        return "constraints unmet after disabling one way"


class HYAPD(OracleScheme):
    """Power down one horizontal band across all ways.

    Parameters
    ----------
    peripheral_save_fraction:
        Fraction of a band's proportional share of way-peripheral leakage
        that gating the band actually saves (the rest cannot be turned
        off; paper Section 4.2).
    """

    name = "H-YAPD"

    def __init__(self, peripheral_save_fraction: float = 0.5) -> None:
        require_in_range(
            peripheral_save_fraction, 0.0, 1.0, "peripheral_save_fraction"
        )
        self.peripheral_save_fraction = peripheral_save_fraction

    # ------------------------------------------------------------------
    def leakage_after_disabling_band(self, case: ChipCase, band: int) -> float:
        """Total leakage (W) with horizontal band ``band`` gated off."""
        circuit = case.circuit
        array_saving = band_array_leakage(circuit, band)
        peripheral_saving = (
            self.peripheral_save_fraction
            * total_peripheral_leakage(circuit)
            / circuit.num_bands
        )
        return case.total_leakage - array_saving - peripheral_saving

    def _band_feasible(self, case: ChipCase, band: int) -> Optional[float]:
        """Post-rescue leakage if gating ``band`` satisfies everything."""
        delays_ok = all(
            meets_delay(case.constraints, delay_without_band(way, band))
            for way in case.circuit.ways
        )
        if not delays_ok:
            return None
        leakage = self.leakage_after_disabling_band(case, band)
        if not meets_leakage(case.constraints, leakage):
            return None
        return leakage

    # ------------------------------------------------------------------
    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)

        best_band: Optional[int] = None
        best_leakage = float("inf")
        for band in range(case.circuit.num_bands):
            leakage = self._band_feasible(case, band)
            if leakage is not None and leakage < best_leakage:
                best_band, best_leakage = band, leakage

        if best_band is None:
            return self._lost(case, "no single horizontal band repairs the chip")

        way_cycles = tuple(
            BASE_ACCESS_CYCLES for _ in range(case.circuit.num_ways)
        )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            disabled_band=best_band,
            way_cycles=way_cycles,
            note=f"disabled horizontal band {best_band}",
        )


class VACA(OracleScheme):
    """Tolerate 5-cycle ways via load-bypass buffers; no power-down."""

    name = "VACA"

    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)
        if case.leakage_violation:
            return self._lost(case, "VACA cannot reduce leakage")
        slowest = max(case.way_cycles)
        if slowest > VACA_MAX_CYCLES:
            return self._lost(
                case,
                f"a way needs {slowest} cycles; load-bypass buffers allow "
                f"at most {VACA_MAX_CYCLES}",
            )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            way_cycles=case.way_cycles,
            note="slow ways served at 5 cycles",
        )


class DeepVACA(OracleScheme):
    """VACA with ``slack``-entry load-bypass buffers (paper Section 4.3's
    rejected extension: tolerate ways up to ``4 + slack`` cycles).

    Parameters
    ----------
    slack:
        Extra cycles the buffers can absorb (1 reproduces :class:`VACA`).
    """

    def __init__(self, slack: int = 2) -> None:
        if slack < 0:
            raise ConfigurationError(f"slack must be >= 0, got {slack}")
        self.slack = slack
        self.name = f"VACA+{slack}"

    @property
    def max_cycles(self) -> int:
        """Slowest tolerable way latency."""
        return BASE_ACCESS_CYCLES + self.slack

    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)
        if case.leakage_violation:
            return self._lost(case, "cannot reduce leakage")
        slowest = max(case.way_cycles)
        if slowest > self.max_cycles:
            return self._lost(
                case,
                f"a way needs {slowest} cycles; {self.slack}-entry buffers "
                f"allow at most {self.max_cycles}",
            )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            way_cycles=case.way_cycles,
            note=f"slow ways served at up to {self.max_cycles} cycles",
        )


class Hybrid(OracleScheme):
    """VACA latencies plus at most one vertical way power-down."""

    name = "Hybrid"

    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)

        # VACA mode first: keep everything powered if 5 cycles suffice.
        if not case.leakage_violation and max(case.way_cycles) <= VACA_MAX_CYCLES:
            return RescueOutcome(
                scheme=self.name,
                saved=True,
                configuration=case.configuration,
                way_cycles=case.way_cycles,
                note="slow ways served at 5 cycles (no power-down needed)",
            )

        target = self._pick_target(case)
        if target is None:
            return self._lost(case, self._loss_note(case))

        way_cycles: Tuple[Optional[int], ...] = tuple(
            None if w == target else case.way_cycles[w]
            for w in range(case.circuit.num_ways)
        )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            disabled_way=target,
            way_cycles=way_cycles,
            note=f"disabled way {target}, remaining ways at up to 5 cycles",
        )

    # ------------------------------------------------------------------
    def _feasible(self, case: ChipCase, way: int) -> bool:
        """Would disabling ``way`` satisfy both constraints?"""
        cycles_ok = all(
            case.way_cycles[w] <= VACA_MAX_CYCLES
            for w in range(case.circuit.num_ways)
            if w != way
        )
        leakage_ok = meets_leakage(
            case.constraints, case.leakage_after_disabling_way(way)
        )
        return cycles_ok and leakage_ok

    def _pick_target(self, case: ChipCase) -> Optional[int]:
        """Choose the single way to disable, honouring the paper's policy.

        Preference order: the (single) way needing 6+ cycles, then the
        leakiest way; either choice must actually repair the chip.
        """
        too_slow = [
            w for w, c in enumerate(case.way_cycles) if c > VACA_MAX_CYCLES
        ]
        if len(too_slow) > 1:
            return None
        candidates = []
        if too_slow:
            candidates.append(too_slow[0])
        if case.leakage_violation:
            leakiest = case.max_leakage_way()
            if leakiest not in candidates:
                candidates.append(leakiest)
        for way in candidates:
            if self._feasible(case, way):
                return way
        return None

    def _loss_note(self, case: ChipCase) -> str:
        too_slow = [
            w for w, c in enumerate(case.way_cycles) if c > VACA_MAX_CYCLES
        ]
        if len(too_slow) > 1:
            return f"{len(too_slow)} ways need 6+ cycles; only one may be disabled"
        if case.leakage_violation:
            return "leakage remains above limit after disabling one way"
        return "no single power-down repairs the chip"


class HybridHorizontal(OracleScheme):
    """VACA latencies plus at most one horizontal band power-down.

    Parameters
    ----------
    peripheral_save_fraction:
        See :class:`~repro.schemes.hyapd.HYAPD`.
    """

    name = "Hybrid-H"

    def __init__(self, peripheral_save_fraction: float = 0.5) -> None:
        self._hyapd = HYAPD(peripheral_save_fraction)

    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)

        if not case.leakage_violation and max(case.way_cycles) <= VACA_MAX_CYCLES:
            return RescueOutcome(
                scheme=self.name,
                saved=True,
                configuration=case.configuration,
                way_cycles=case.way_cycles,
                note="slow ways served at 5 cycles (no power-down needed)",
            )

        best_band: Optional[int] = None
        best_leakage = float("inf")
        best_cycles: Optional[Tuple[int, ...]] = None
        for band in range(case.circuit.num_bands):
            cycles = case.way_cycles_without_band(band)
            if max(cycles) > VACA_MAX_CYCLES:
                continue
            leakage = self._hyapd.leakage_after_disabling_band(case, band)
            if not meets_leakage(case.constraints, leakage):
                continue
            if leakage < best_leakage:
                best_band, best_leakage, best_cycles = band, leakage, cycles

        if best_band is None or best_cycles is None:
            return self._lost(
                case, "no single horizontal band repairs the chip"
            )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            disabled_band=best_band,
            way_cycles=best_cycles,
            note=(
                f"disabled horizontal band {best_band}, "
                "remaining paths at up to 5 cycles"
            ),
        )


class NaiveBinning(OracleScheme):
    """Run the whole cache at a uniformly higher access latency.

    Parameters
    ----------
    target_cycles:
        The uniform access latency of the new bin (5 or 6 in the paper).
    """

    def __init__(self, target_cycles: int = BASE_ACCESS_CYCLES + 1) -> None:
        if target_cycles < BASE_ACCESS_CYCLES:
            raise ConfigurationError(
                f"target_cycles must be >= {BASE_ACCESS_CYCLES}"
            )
        self.target_cycles = target_cycles
        self.name = f"Binning@{target_cycles}"

    def rescue(self, case: ChipCase) -> RescueOutcome:
        if case.passes:
            return self._pass_through(case)
        if case.leakage_violation:
            return self._lost(case, "re-binning cannot reduce leakage")
        if max(case.way_cycles) > self.target_cycles:
            return self._lost(
                case,
                f"a way needs more than {self.target_cycles} cycles",
            )
        way_cycles = tuple(
            self.target_cycles for _ in range(case.circuit.num_ways)
        )
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            way_cycles=way_cycles,
            note=f"entire cache re-binned at {self.target_cycles} cycles",
        )
