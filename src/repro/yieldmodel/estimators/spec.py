"""Estimator specification: the identity of one estimation strategy.

An :class:`EstimatorSpec` names which estimator runs and every knob that
changes its numbers. It is part of the content-addressed store key of an
estimate (and of an adaptively-stopped population), so two runs agree on
an answer exactly when they agree on ``(seed, chips, policy, spec)`` —
the same identity discipline every other engine job follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.errors import ConfigurationError

__all__ = ["ESTIMATOR_KINDS", "EstimatorSpec"]

#: Supported estimator kinds, in presentation order.
ESTIMATOR_KINDS = ("fixed", "adaptive", "stratified", "is")

#: Confidence levels the Wilson/normal intervals support.
_CONFIDENCES = (0.90, 0.95, 0.99)


@dataclass(frozen=True)
class EstimatorSpec:
    """How one yield estimate is computed.

    Attributes
    ----------
    kind:
        ``fixed`` | ``adaptive`` | ``stratified`` | ``is``.
    ci_target:
        Stop once every tracked figure's CI half-width is at or below
        this (``None`` = no CI stopping; the estimator runs to its
        sample cap, which is the legacy fixed-N behaviour).
    batch_size:
        Chips drawn per sequential round.
    max_chips:
        Hard sample cap; ``None`` defers to the run's population size.
    pilot_chips:
        Pilot-batch size (stratified allocation / IS tilt calibration).
    strata:
        Stratum count of the stratified estimator.
    tilt_scale:
        Multiplier on the IS mean-shift computed from the pilot.
    confidence:
        Interval confidence level (0.90, 0.95 or 0.99).
    """

    kind: str = "fixed"
    ci_target: Optional[float] = None
    batch_size: int = 250
    max_chips: Optional[int] = None
    pilot_chips: int = 200
    strata: int = 4
    tilt_scale: float = 1.0
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigurationError(
                f"unknown estimator kind {self.kind!r}; "
                f"available: {list(ESTIMATOR_KINDS)}"
            )
        if self.ci_target is not None and not 0.0 < self.ci_target < 0.5:
            raise ConfigurationError(
                f"ci_target must be in (0, 0.5), got {self.ci_target}"
            )
        if self.batch_size < 2:
            raise ConfigurationError(
                f"batch_size must be >= 2, got {self.batch_size}"
            )
        if self.max_chips is not None and self.max_chips < 2:
            raise ConfigurationError(
                f"max_chips must be >= 2, got {self.max_chips}"
            )
        if self.pilot_chips < 8:
            raise ConfigurationError(
                f"pilot_chips must be >= 8, got {self.pilot_chips}"
            )
        if not 2 <= self.strata <= 16:
            raise ConfigurationError(
                f"strata must be in [2, 16], got {self.strata}"
            )
        if not 0.0 < self.tilt_scale <= 4.0:
            raise ConfigurationError(
                f"tilt_scale must be in (0, 4], got {self.tilt_scale}"
            )
        if round(self.confidence, 2) not in _CONFIDENCES:
            raise ConfigurationError(
                f"confidence must be one of {list(_CONFIDENCES)}, "
                f"got {self.confidence}"
            )

    # ------------------------------------------------------------------
    @property
    def stratum_pilot_chips(self) -> int:
        """Pilot chips the stratified estimator draws in each stratum."""
        return max(4, self.pilot_chips // self.strata)

    def sample_cap(self, chips: int) -> int:
        """The most chips this spec draws for a ``chips``-chip run.

        The stratified and IS kinds spend part of the cap on a pilot; a
        cap that leaves no room past it raises
        :class:`~repro.core.errors.ConfigurationError` before any chip
        is drawn, so callers can refuse the request up front.
        """
        cap = self.max_chips if self.max_chips is not None else chips
        if self.kind == "stratified":
            pilot_each = self.stratum_pilot_chips
            if cap < self.strata * pilot_each + self.strata:
                raise ConfigurationError(
                    f"sample cap {cap} leaves no room beyond the "
                    f"{self.strata}x{pilot_each}-chip stratified pilot"
                )
        elif self.kind == "is" and cap <= self.pilot_chips + 1:
            raise ConfigurationError(
                f"sample cap {cap} leaves no room beyond the "
                f"{self.pilot_chips}-chip IS pilot"
            )
        return cap

    def identity(self) -> Dict[str, object]:
        """The spec's contribution to a content-addressed job key.

        Only the fields the chosen kind actually consumes are included,
        so e.g. changing ``strata`` never invalidates an IS estimate.
        ``fixed`` reads only its sample cap and its interval confidence.
        """
        identity: Dict[str, object] = {"kind": self.kind}
        if self.kind != "fixed":
            identity["batch_size"] = self.batch_size
            identity["ci_target"] = self.ci_target
        identity["max_chips"] = self.max_chips
        identity["confidence"] = self.confidence
        if self.kind == "stratified":
            identity["pilot_chips"] = self.pilot_chips
            identity["strata"] = self.strata
        elif self.kind == "is":
            identity["pilot_chips"] = self.pilot_chips
            identity["tilt_scale"] = self.tilt_scale
        return identity

    @classmethod
    def from_payload(cls, payload: object) -> "EstimatorSpec":
        """Build a spec from a JSON-shaped dict (serve bodies, CLI).

        Unknown fields raise — a typoed knob must not silently select
        the default and cache the wrong identity.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("estimator spec must be a JSON object")
        allowed = {
            "kind", "ci_target", "batch_size", "max_chips",
            "pilot_chips", "strata", "tilt_scale", "confidence",
        }
        unknown = set(payload) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown estimator field(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        fields: Dict[str, object] = {}
        for name in allowed:
            if name in payload:
                fields[name] = payload[name]
        for name in ("batch_size", "max_chips", "pilot_chips", "strata"):
            value = fields.get(name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ConfigurationError(
                    f"estimator field {name!r} must be an integer"
                )
        for name in ("ci_target", "tilt_scale", "confidence"):
            value = fields.get(name)
            if value is not None and not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"estimator field {name!r} must be a number"
                )
        if "kind" in fields and not isinstance(fields["kind"], str):
            raise ConfigurationError("estimator field 'kind' must be a string")
        return cls(**fields)
