"""Scheme interface, decisions and rescue outcomes.

:meth:`Scheme.decide` decides every chip of a population's
:class:`~repro.yieldmodel.classify.ChipColumns` at once
(:class:`Decisions`, one row per chip); :meth:`Scheme.rescue` decides one
:class:`ChipCase` as a :class:`RescueOutcome`. Outcomes carry the
post-rescue cache shape — which way or horizontal band was powered down
and the access cycles of every surviving way — which is exactly what the
functional cache model and the pipeline simulator need to measure the
performance cost of the rescue. A :class:`ColumnarScheme`'s array
``decide`` is its only decision logic and ``rescue`` its one-chip view.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.circuit.columnar import CircuitColumns
from repro.core.errors import ConfigurationError
from repro.yieldmodel.classify import ChipCase, ChipColumns

__all__ = ["ColumnarScheme", "Decisions", "RescueOutcome", "Scheme"]


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


class Decisions(NamedTuple):
    """Row ``i`` is chip ``i``'s :class:`RescueOutcome` as columns.

    ``way_cycles`` uses 0 for a disabled way and ``disabled_way``/
    ``disabled_band`` -1 for none; they matter only where ``saved``.
    """

    saved: np.ndarray  # (C,) bool
    way_cycles: np.ndarray  # (C, W) int
    disabled_way: np.ndarray  # (C,) int
    disabled_band: np.ndarray  # (C,) int

    @classmethod
    def of(
        cls,
        chips: ChipColumns,
        saved: np.ndarray,
        way_cycles: Optional[np.ndarray] = None,
        disabled_way: Optional[np.ndarray] = None,
        disabled_band: Optional[np.ndarray] = None,
    ) -> "Decisions":
        """Decisions defaulting to the unchanged cycles and no power-down."""
        none = np.full(chips.count, -1)
        return cls(
            saved=saved,
            way_cycles=chips.way_cycles if way_cycles is None else way_cycles,
            disabled_way=none if disabled_way is None else disabled_way,
            disabled_band=none if disabled_band is None else disabled_band,
        )


class Scheme(abc.ABC):
    """A yield-aware rescue scheme."""

    #: Display name used in tables; subclasses override.
    name: str = "scheme"

    @abc.abstractmethod
    def decide(self, chips: ChipColumns) -> Decisions:
        """Decide every chip of ``chips`` at once; never mutates them."""

    @abc.abstractmethod
    def rescue(self, case: ChipCase) -> RescueOutcome:
        """Attempt to rescue ``case``; never mutates it."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ColumnarScheme(Scheme):
    """A scheme whose array :meth:`decide` is its only decision logic."""

    def rescue(self, case: ChipCase) -> RescueOutcome:
        """One-chip view of :meth:`decide` (row 0 of the case's columns)."""
        if case.passes:
            return self._pass_through(case)
        chips = ChipColumns(
            CircuitColumns.from_circuits([case.circuit]), case.constraints
        )
        decided = self.decide(chips)
        note = self._note(chips, decided)
        if not decided.saved[0]:
            return self._lost(case, note)
        way = int(decided.disabled_way[0])
        band = int(decided.disabled_band[0])
        return RescueOutcome(
            scheme=self.name,
            saved=True,
            configuration=case.configuration,
            disabled_way=None if way < 0 else way,
            disabled_band=None if band < 0 else band,
            way_cycles=tuple(
                cycles or None for cycles in decided.way_cycles[0].tolist()
            ),
            note=note,
        )

    @abc.abstractmethod
    def _note(self, chips: ChipColumns, decided: Decisions) -> str:
        """Why the failing chip in row 0 was saved or lost."""
