"""Population yield analysis (paper Section 5.1, Tables 2-5, Figure 8).

:class:`YieldStudy` runs the full pipeline once per experiment seed:

1. draw ``count`` manufactured caches (Monte Carlo over the correlated
   process parameters),
2. evaluate each with the regular-organisation circuit model *and* the
   H-YAPD-organisation model (same variation map — the paper applies the
   same process parameters to both architectures),
3. derive the delay/leakage limits from the regular population with the
   chosen constraint policy (the delay limit is a design constraint, so
   the H-YAPD architecture is held to the same absolute limits),
4. classify every chip and apply any number of schemes.

The result object knows how to produce the paper's loss-breakdown tables
(Tables 2/3), the relaxed/strict totals (Tables 4/5), the Figure 8
scatter, and the Table 6 configuration census.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.cache_model import CacheCircuitModel, CacheCircuitResult
from repro.circuit.columnar import CircuitColumns, evaluate_population_pair
from repro.circuit.organization import CacheOrganization, PAPER_ORGANIZATION
from repro.circuit.technology import Technology, TECH45
from repro.core.errors import ConfigurationError
from repro.core.validation import require_positive
from repro.variation.columnar import ColumnarPopulationSampler, columnar_enabled
from repro.variation.montecarlo import PAPER_POPULATION
from repro.variation.sampling import CacheVariationSampler
from repro.yieldmodel.classify import (
    ChipCase,
    LossReason,
    config_keys_columns,
    loss_census_columns,
    loss_codes_columns,
    way_cycles_columns,
)
from repro.yieldmodel.constraints import (
    ConstraintPolicy,
    NOMINAL_POLICY,
    YieldConstraints,
)

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.schemes.base import RescueOutcome, Scheme

__all__ = [
    "LossBreakdown",
    "PopulationResult",
    "YieldStudy",
    "ColumnarClassification",
    "classify_population_columns",
]

#: Order in which loss reasons appear in the paper's tables. The 5-8 way
#: buckets only occur for higher-associativity organisations; rows() hides
#: them when empty so the paper's 4-way tables keep the paper's shape.
LOSS_ROW_ORDER: Tuple[LossReason, ...] = (
    LossReason.LEAKAGE,
    LossReason.DELAY_1,
    LossReason.DELAY_2,
    LossReason.DELAY_3,
    LossReason.DELAY_4,
    LossReason.DELAY_5,
    LossReason.DELAY_6,
    LossReason.DELAY_7,
    LossReason.DELAY_8,
)

#: Rows always shown, even when zero (the paper's table shape).
_CANONICAL_ROWS = LOSS_ROW_ORDER[:5]


@dataclass
class LossBreakdown:
    """One scheme-comparison table (the shape of the paper's Tables 2/3).

    Attributes
    ----------
    base_counts:
        Failing chips per loss reason before any scheme.
    scheme_losses:
        Residual losses per scheme name, per loss reason.
    population:
        Total number of chips simulated.
    """

    base_counts: Dict[LossReason, int]
    scheme_losses: Dict[str, Dict[LossReason, int]]
    population: int

    @property
    def base_total(self) -> int:
        """Total failing chips before any scheme."""
        return sum(self.base_counts.values())

    def scheme_total(self, scheme: str) -> int:
        """Total residual losses of ``scheme``."""
        return sum(self.scheme_losses[scheme].values())

    def loss_reduction(self, scheme: str) -> float:
        """Fractional reduction in yield loss achieved by ``scheme``."""
        base = self.base_total
        if base == 0:
            return 0.0
        return 1.0 - self.scheme_total(scheme) / base

    def yield_with(self, scheme: Optional[str] = None) -> float:
        """Overall yield, optionally after applying ``scheme``.

        An empty population has no shippable chips: yield is 0.0, not a
        division error (empty breakdowns reach here through zero-chip
        filter views).
        """
        if self.population == 0:
            return 0.0
        losses = self.base_total if scheme is None else self.scheme_total(scheme)
        return 1.0 - losses / self.population

    def rows(self) -> List[Tuple[LossReason, int, Dict[str, int]]]:
        """Table rows: (reason, base count, per-scheme residual losses).

        The paper's five rows always appear; the extra high-associativity
        buckets appear only when populated.
        """
        out = []
        for reason in LOSS_ROW_ORDER:
            base = self.base_counts.get(reason, 0)
            if base == 0 and reason not in _CANONICAL_ROWS:
                continue
            out.append(
                (
                    reason,
                    base,
                    {
                        name: losses.get(reason, 0)
                        for name, losses in self.scheme_losses.items()
                    },
                )
            )
        return out


#: Cap on distinct ``{arch}.{label}`` gauge series minted by
#: :func:`_emit_estimator_gauges` over a process lifetime. Scheme names
#: are caller-supplied, so a long-lived serve process evaluating
#: ad-hoc scheme sets could otherwise mint unbounded series — the same
#: hazard ``RequestRollup`` bounds by collapsing unknown paths into
#: ``<other>``. 32 covers the paper's scheme vocabulary many times over.
_GAUGE_SERIES_CAP = 32

_gauge_series_seen: set = set()
_gauge_series_lock = threading.Lock()


def _gauge_series_label(arch: str, name: str) -> str:
    """Admit ``{arch}.{name}`` as a gauge series, or collapse it.

    First-come-first-served up to :data:`_GAUGE_SERIES_CAP` distinct
    labels; everything past the cap lands on ``{arch}.<other>`` (the
    overflow series itself is pre-admitted so it never consumes the
    budget). Keeps ``/metrics`` output bounded no matter what scheme
    names flow through breakdowns.
    """
    key = f"{arch}.{name}"
    with _gauge_series_lock:
        if key in _gauge_series_seen:
            return key
        if len(_gauge_series_seen) < _GAUGE_SERIES_CAP:
            _gauge_series_seen.add(key)
            return key
    return f"{arch}.<other>"


def _emit_estimator_gauges(breakdown: LossBreakdown, horizontal: bool) -> None:
    """Publish estimator-quality gauges for one loss breakdown.

    Every breakdown is a set of binomial yield estimates (base and one
    per scheme); alongside each point estimate we publish its 95% Wilson
    CI half-width and the sample count, so statistical efficiency —
    "how many chips bought how tight an interval" — is visible on
    ``/metrics`` and the live dashboard, not just in offline reports
    (ROADMAP: report estimator variance alongside yield). Series labels
    are capped via :func:`_gauge_series_label`.
    """
    from repro.obs.metrics import get_metrics
    from repro.yieldmodel.statistics import wilson_interval

    total = breakdown.population
    if total <= 0:
        return
    registry = get_metrics()
    arch = "horizontal" if horizontal else "regular"
    targets = [("base", breakdown.base_total)]
    targets.extend(
        (name, breakdown.scheme_total(name))
        for name in breakdown.scheme_losses
    )
    for name, losses in targets:
        ships = total - losses
        low, high = wilson_interval(ships, total)
        key = _gauge_series_label(arch, name)
        registry.gauge(f"yield.estimate.{key}").set(ships / total)
        registry.gauge(f"yield.ci_halfwidth.{key}").set((high - low) / 2.0)
        registry.gauge(f"yield.samples.{key}").set(total)


@dataclass
class PopulationResult:
    """All per-chip cases of one Monte Carlo population."""

    constraints: YieldConstraints
    cases: List[ChipCase]
    h_cases: List[ChipCase]
    policy: ConstraintPolicy = NOMINAL_POLICY

    @property
    def population(self) -> int:
        return len(self.cases)

    def select(self, horizontal: bool) -> List[ChipCase]:
        """The regular- or H-YAPD-architecture cases."""
        return self.h_cases if horizontal else self.cases

    def reconstrained(self, policy: ConstraintPolicy) -> "PopulationResult":
        """Re-derive limits under another policy over the *same* chips.

        Tables 4 and 5 change the constraints without re-manufacturing
        the population; limits are always derived from the regular
        architecture's delays (the design constraint both architectures
        are held to).
        """
        constraints = policy.derive(
            [case.circuit.access_delay for case in self.cases],
            [case.total_leakage for case in self.cases],
        )
        return PopulationResult(
            constraints=constraints,
            cases=[
                ChipCase(circuit=case.circuit, constraints=constraints)
                for case in self.cases
            ],
            h_cases=[
                ChipCase(circuit=case.circuit, constraints=constraints)
                for case in self.h_cases
            ],
            policy=policy,
        )

    # ------------------------------------------------------------------
    def apply_scheme(
        self, scheme: "Scheme", horizontal: bool = False
    ) -> List["RescueOutcome"]:
        """Run ``scheme`` over every chip of the chosen architecture."""
        return [scheme.rescue(case) for case in self.select(horizontal)]

    def breakdown(
        self,
        schemes: Sequence["Scheme"],
        horizontal: bool = False,
    ) -> LossBreakdown:
        """Build a Tables 2/3-style loss breakdown for ``schemes``."""
        cases = self.select(horizontal)
        base_counts: Dict[LossReason, int] = {}
        for case in cases:
            reason = case.loss_reason
            if reason.is_loss:
                base_counts[reason] = base_counts.get(reason, 0) + 1

        scheme_losses: Dict[str, Dict[LossReason, int]] = {}
        for scheme in schemes:
            losses: Dict[LossReason, int] = {}
            for case in cases:
                reason = case.loss_reason
                if not reason.is_loss:
                    continue
                if not scheme.rescue(case).saved:
                    losses[reason] = losses.get(reason, 0) + 1
            scheme_losses[scheme.name] = losses
        result = LossBreakdown(
            base_counts=base_counts,
            scheme_losses=scheme_losses,
            population=len(cases),
        )
        _emit_estimator_gauges(result, horizontal)
        return result

    def configuration_census(
        self, scheme: "Scheme", horizontal: bool = False
    ) -> Dict[str, int]:
        """Count saved-from-loss chips per Table 6 configuration key.

        Only chips converted from yield loss to yield gain are counted
        (chips that pass outright never engage a scheme).
        """
        census: Dict[str, int] = {}
        for case in self.select(horizontal):
            if case.passes:
                continue
            outcome = scheme.rescue(case)
            if outcome.saved:
                census[outcome.configuration] = (
                    census.get(outcome.configuration, 0) + 1
                )
        return census

    def scatter(
        self, horizontal: bool = False
    ) -> Tuple[List[float], List[float]]:
        """Figure 8 data: (normalized leakage, access delay in seconds).

        Leakage is normalized to the population average, matching the
        paper's "normalized leakage power" axis.
        """
        cases = self.select(horizontal)
        leakages = [case.total_leakage for case in cases]
        mean = sum(leakages) / len(leakages)
        delays = [case.circuit.access_delay for case in cases]
        return [leak / mean for leak in leakages], delays


@dataclass(frozen=True)
class ColumnarClassification:
    """Column-wise yield classification of one population.

    The array counterpart of a list of :class:`ChipCase`\\ s: per-way
    cycle counts, per-chip loss codes (see
    :func:`~repro.yieldmodel.classify.loss_codes_columns`), and the
    population delays/leakages the limits were held against. Every
    derived number matches the per-case classification bit for bit
    (asserted by the columnar differential battery).
    """

    constraints: YieldConstraints
    way_cycles: np.ndarray  # (chips, ways) int
    loss_codes: np.ndarray  # (chips,) int
    access_delays: np.ndarray  # (chips,) float
    total_leakages: np.ndarray  # (chips,) float

    @property
    def population(self) -> int:
        return int(self.loss_codes.shape[0])

    def loss_census(self) -> Dict[LossReason, int]:
        """Failing chips per loss reason — ``LossBreakdown.base_counts``."""
        return loss_census_columns(self.loss_codes)

    def yield_fraction(self) -> float:
        """Overall yield — ``LossBreakdown.yield_with(None)``."""
        losses = int(np.count_nonzero(self.loss_codes))
        return 1.0 - losses / self.population

    def configuration_keys(self) -> List[str]:
        """Per-chip Table 6 keys — ``ChipCase.configuration`` columns."""
        return config_keys_columns(self.way_cycles)

    def scatter(self) -> Tuple[List[float], List[float]]:
        """Figure 8 data, identical to :meth:`PopulationResult.scatter`."""
        leakages = self.total_leakages.tolist()
        mean = sum(leakages) / len(leakages)
        return [leak / mean for leak in leakages], self.access_delays.tolist()


def classify_population_columns(
    columns: CircuitColumns,
    policy: ConstraintPolicy = NOMINAL_POLICY,
    constraints: Optional[YieldConstraints] = None,
    delay_scale: float = 1.0,
) -> ColumnarClassification:
    """Classify a whole evaluated population column-wise.

    The column mirror of :meth:`YieldStudy.assemble` plus per-case
    classification: derive limits with ``policy`` over these columns
    (unless explicit ``constraints`` are given — pass the regular
    architecture's limits when classifying H-YAPD columns, since both
    architectures are held to the limits derived from the regular
    population), then bucket every chip. The limit derivation feeds
    ``policy.derive`` plain Python floats, so the limits equal the
    per-case path's exactly.
    """
    way_delays = columns.way_delays(delay_scale)
    access_delays = columns.access_delays(delay_scale)
    leakages = columns.total_leakage()
    if constraints is None:
        constraints = policy.derive(access_delays.tolist(), leakages.tolist())
    return ColumnarClassification(
        constraints=constraints,
        way_cycles=way_cycles_columns(way_delays, constraints),
        loss_codes=loss_codes_columns(way_delays, leakages, constraints),
        access_delays=access_delays,
        total_leakages=leakages,
    )


@dataclass
class YieldStudy:
    """End-to-end Monte Carlo yield study.

    Parameters
    ----------
    seed:
        Experiment seed (chips are reproducible per seed).
    count:
        Population size (the paper uses 2000).
    policy:
        Constraint policy used to derive limits from the population.
    tech, organization:
        Circuit model inputs.
    sampler:
        Variation sampler; defaults to the paper's Table 1 / correlation
        factor configuration.
    """

    seed: int = 2006
    count: int = PAPER_POPULATION
    policy: ConstraintPolicy = NOMINAL_POLICY
    tech: Technology = TECH45
    organization: CacheOrganization = PAPER_ORGANIZATION
    sampler: CacheVariationSampler = field(default_factory=CacheVariationSampler)

    def __post_init__(self) -> None:
        require_positive(self.count, "count")

    def _columnar_sampler(self) -> Optional[ColumnarPopulationSampler]:
        """The columnar fast-path sampler, or None when unavailable.

        The fast path requires the stock sampler type (a subclass could
        override the draw procedure the columnar sampler mirrors) and a
        non-degenerate table (see
        :attr:`ColumnarPopulationSampler.supported`). Built lazily and
        cached on the study; the ``REPRO_COLUMNAR`` switch is checked at
        call time so flipping it between runs takes effect.
        """
        cached = self.__dict__.get("_columnar_cache", False)
        if cached is not False:
            return cached
        columnar: Optional[ColumnarPopulationSampler] = None
        if type(self.sampler) is CacheVariationSampler:
            candidate = ColumnarPopulationSampler(self.sampler)
            if candidate.supported:
                columnar = candidate
        self.__dict__["_columnar_cache"] = columnar
        return columnar

    def evaluate_chips(
        self, start: int, stop: int
    ) -> Tuple[List["CacheCircuitResult"], List["CacheCircuitResult"]]:
        """Evaluate chip ids ``[start, stop)`` under both architectures.

        This is the shardable half of :meth:`run`: each chip's RNG stream
        is derived from ``(seed, chip_id)`` alone, so disjoint id ranges
        can be evaluated in any order — or in parallel processes — and
        concatenated into the exact serial population.

        When the columnar fast path applies (stock sampler, positive
        sigmas, ``REPRO_COLUMNAR`` not 0) the range is sampled and
        evaluated as whole-population arrays instead of chip by chip —
        same results bit for bit, so callers (and the engine's result
        store) cannot tell the paths apart.
        """
        if not 0 <= start <= stop:
            raise ConfigurationError(
                f"invalid chip range [{start}, {stop})"
            )
        regular_model = CacheCircuitModel(
            tech=self.tech, org=self.organization, hyapd=False
        )
        hyapd_model = CacheCircuitModel(
            tech=self.tech, org=self.organization, hyapd=True
        )
        if columnar_enabled():
            columnar = self._columnar_sampler()
            if columnar is not None:
                population = columnar.sample_range(self.seed, start, stop)
                return evaluate_population_pair(
                    regular_model, hyapd_model, population
                )
        regular = []
        horizontal = []
        for chip_id in range(start, stop):
            cvmap = self.sampler.sample_chip(self.seed, chip_id)
            reg_result, hyapd_result = regular_model.evaluate_pair(
                hyapd_model, cvmap
            )
            regular.append(reg_result)
            horizontal.append(hyapd_result)
        return regular, horizontal

    def assemble(
        self,
        regular: List["CacheCircuitResult"],
        horizontal: List["CacheCircuitResult"],
    ) -> PopulationResult:
        """Derive limits over the full population and classify every chip.

        ``regular``/``horizontal`` are the concatenated shard outputs of
        :meth:`evaluate_chips` in chip-id order. Limits always come from
        the complete regular population (never per shard), so assembly is
        independent of how the evaluation was split.
        """
        if len(regular) != len(horizontal):
            raise ConfigurationError(
                "regular and horizontal populations differ in size"
            )
        constraints = self.policy.derive(
            [r.access_delay for r in regular],
            [r.total_leakage for r in regular],
        )
        return PopulationResult(
            constraints=constraints,
            cases=[ChipCase(circuit=r, constraints=constraints) for r in regular],
            h_cases=[
                ChipCase(circuit=h, constraints=constraints) for h in horizontal
            ],
            policy=self.policy,
        )

    def run(self) -> PopulationResult:
        """Sample, evaluate both architectures, derive limits, classify."""
        return self.assemble(*self.evaluate_chips(0, self.count))
