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

A study always draws its own chips. Reusing the rows of a live
population of the same chips, or one draw across the studies of a sweep,
is the engine's business (:meth:`repro.engine.core.Engine.studies`): it
owns the chip path.

The result object holds the population as columns and counts from them
the paper's loss-breakdown tables (Tables 2/3), the relaxed/strict totals
(Tables 4/5), the Figure 8 scatter, and the Table 6 configuration census;
each scheme decides the whole population with one array call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import (
    TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.circuit.cache_model import CacheCircuitModel
from repro.circuit.columnar import CircuitColumns, evaluate_population_pair
from repro.circuit.organization import CacheOrganization, PAPER_ORGANIZATION
from repro.circuit.technology import Technology, TECH45
from repro.core.errors import ConfigurationError
from repro.core.validation import require_positive
from repro.variation.columnar import (
    ColumnarPopulation,
    ColumnarPopulationSampler,
)
from repro.variation.montecarlo import PAPER_POPULATION
from repro.variation.sampling import CacheVariationSampler
from repro.yieldmodel.classify import (
    ChipColumns,
    LossReason,
    config_key,
    loss_counts,
)
from repro.yieldmodel.constraints import (
    ConstraintPolicy,
    NOMINAL_POLICY,
    YieldConstraints,
)
from repro.yieldmodel.statistics import wilson_interval

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.schemes.base import Scheme

__all__ = [
    "BaseYield",
    "LossBreakdown",
    "PopulationResult",
    "YieldStudy",
    "derive_constraints",
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


class BaseYield(NamedTuple):
    """One architecture's base yield: the share of its chips that ship,
    the half-width of its 95% Wilson interval, and its chip count."""

    estimate: float
    ci_halfwidth: float
    samples: int


class PopulationResult:
    """One Monte Carlo population: both architectures' circuit columns
    and their classification (:class:`ChipColumns`, derived once, here).

    Every table is counted from these read-only columns. ``base_yields``
    holds both architectures' :class:`BaseYield`, regular first, also
    derived once (empty for a population of no chips).
    """

    def __init__(
        self,
        constraints: YieldConstraints,
        regular: CircuitColumns,
        horizontal: CircuitColumns,
        policy: ConstraintPolicy = NOMINAL_POLICY,
    ) -> None:
        if regular.chip_ids != horizontal.chip_ids:
            raise ConfigurationError(
                "regular and horizontal populations hold different chips"
            )
        self.constraints = constraints
        self.policy = policy
        self.regular = regular
        self.horizontal = horizontal
        self._chips = (
            ChipColumns(regular, constraints),
            ChipColumns(horizontal, constraints),
        )
        self.base_yields = tuple(
            _base_yield(chips) for chips in self._chips if chips.count
        )

    @property
    def population(self) -> int:
        return len(self.regular)

    def chips(self, horizontal: bool = False) -> ChipColumns:
        """The regular- or H-YAPD-architecture classification columns."""
        return self._chips[horizontal]

    def reconstrained(self, policy: ConstraintPolicy) -> "PopulationResult":
        """Re-derive limits under another policy over the *same* chips.

        Tables 4 and 5 change the constraints without re-manufacturing
        the population; limits are always derived from the regular
        architecture's delays (the design constraint both architectures
        are held to). The circuit columns are shared.
        """
        return PopulationResult(
            constraints=derive_constraints(policy, self.regular),
            regular=self.regular,
            horizontal=self.horizontal,
            policy=policy,
        )

    # ------------------------------------------------------------------
    def breakdown(
        self,
        schemes: Sequence["Scheme"],
        horizontal: bool = False,
    ) -> LossBreakdown:
        """Build a Tables 2/3-style loss breakdown for ``schemes``."""
        chips = self._chips[horizontal]
        return LossBreakdown(
            base_counts=dict(chips.base_counts),
            scheme_losses={
                scheme.name: loss_counts(
                    chips.loss_codes[~scheme.decide(chips).saved]
                )
                for scheme in schemes
            },
            population=chips.count,
        )

    def configuration_census(
        self, scheme: "Scheme", horizontal: bool = False
    ) -> Dict[str, int]:
        """Count saved-from-loss chips per Table 6 configuration key.

        Only chips converted from yield loss to yield gain are counted
        (chips that pass outright never engage a scheme).
        """
        chips = self._chips[horizontal]
        saved = ~chips.passes & scheme.decide(chips).saved
        census: Dict[str, int] = {}
        for way_cycles in chips.way_cycles[saved].tolist():
            key = config_key(way_cycles)
            census[key] = census.get(key, 0) + 1
        return census

    def scatter(
        self, horizontal: bool = False
    ) -> Tuple[List[float], List[float]]:
        """Figure 8 data: (normalized leakage, access delay in seconds).

        Leakage is normalized to the population average (summed left to
        right), matching the paper's "normalized leakage power" axis.
        """
        circuits = self.horizontal if horizontal else self.regular
        leakages = circuits.total_leakage.tolist()
        mean = reduce(add, leakages, 0.0) / len(leakages)
        delays = circuits.access_delays.tolist()
        return [leak / mean for leak in leakages], delays


def _base_yield(chips: ChipColumns) -> BaseYield:
    low, high = wilson_interval(chips.ships, chips.count)
    return BaseYield(chips.ships / chips.count, (high - low) / 2.0, chips.count)


def derive_constraints(
    policy: ConstraintPolicy, circuits: CircuitColumns
) -> YieldConstraints:
    """``policy``'s limits over a population's access delays and leakage."""
    return policy.derive(
        circuits.access_delays.tolist(), circuits.total_leakage.tolist()
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
        Variation sampler configuration; defaults to the paper's Table 1
        / correlation factor configuration. Populations are drawn by
        :class:`~repro.variation.columnar.ColumnarPopulationSampler`, so
        it must be a :class:`CacheVariationSampler`; a population from
        another sampler goes through :meth:`assemble`.
    """

    seed: int = 2006
    count: int = PAPER_POPULATION
    policy: ConstraintPolicy = NOMINAL_POLICY
    tech: Technology = TECH45
    organization: CacheOrganization = PAPER_ORGANIZATION
    sampler: CacheVariationSampler = field(default_factory=CacheVariationSampler)

    def __post_init__(self) -> None:
        require_positive(self.count, "count")
        # Refuse before drawing a chip an organisation whose every way
        # could violate delay with no loss bucket to count it in.
        LossReason.delay(self.organization.num_ways)
        if not isinstance(self.sampler, CacheVariationSampler):
            raise ConfigurationError(
                "YieldStudy draws with a CacheVariationSampler, got "
                f"{type(self.sampler).__name__}; evaluate other samplers' "
                "chips with evaluate_population_pair and pass the columns "
                "to assemble()"
            )

    def evaluate(
        self, population: ColumnarPopulation
    ) -> Tuple[CircuitColumns, CircuitColumns]:
        """Drawn chips under both architectures, at this study's
        technology and organisation."""
        return evaluate_population_pair(
            CacheCircuitModel(
                tech=self.tech, org=self.organization, hyapd=False
            ),
            CacheCircuitModel(
                tech=self.tech, org=self.organization, hyapd=True
            ),
            population,
        )

    def assemble(
        self, regular: CircuitColumns, horizontal: CircuitColumns
    ) -> PopulationResult:
        """Derive limits over the full population and classify every chip.

        ``regular``/``horizontal`` hold the population in chip-id order
        (:meth:`run`'s chips, the engine's concatenated chip shards, or
        the rows of a live population the engine shares). Limits always
        come from the complete regular population (never per shard), so
        assembly is independent of how the evaluation was split.
        """
        return PopulationResult(
            constraints=derive_constraints(self.policy, regular),
            regular=regular,
            horizontal=horizontal,
            policy=self.policy,
        )

    def run(self) -> PopulationResult:
        """Sample, evaluate both architectures, derive limits, classify."""
        population = ColumnarPopulationSampler(self.sampler).sample_range(
            self.seed, 0, self.count
        )
        return self.assemble(*self.evaluate(population))
