"""Wire protocol of the yield-analysis service.

Translates between JSON request bodies and the engine's native job
vocabulary (:class:`~repro.experiments.common.ExperimentSettings`,
simulation specs, constraint policies), and between native results and
JSON response payloads. Everything here is deterministic: the same query
always produces the same key and — via the engine's codecs, whose floats
round-trip exactly — the same payload bytes, which is what lets repeat
queries be answered from the warm store bit-identically.

A malformed body raises :class:`ProtocolError`, which the server maps to
a 400 with the message in the JSON error body.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.hierarchy import PAPER_HIERARCHY
from repro.cache.setassoc import WayConfig
from repro.core.errors import ReproError
from repro.engine.codec import encode_population, encode_simulation
from repro.yieldmodel.constraints import ConstraintPolicy, PAPER_POLICIES

__all__ = [
    "ProtocolError",
    "EstimateQuery",
    "PopulationQuery",
    "SimulationQuery",
    "ExperimentQuery",
    "parse_estimate",
    "parse_population",
    "parse_simulation",
    "parse_experiment",
    "estimate_payload",
    "population_payload",
    "simulation_payload",
    "experiment_payload",
    "policy_by_name",
]

#: Named constraint policies a query may select.
POLICIES: Dict[str, ConstraintPolicy] = {p.name: p for p in PAPER_POLICIES}

#: Acceptable population detail levels.
DETAILS = ("summary", "full")


class ProtocolError(ReproError):
    """A request body the service cannot interpret (HTTP 400)."""


def policy_by_name(name: str) -> ConstraintPolicy:
    """The named paper policy, or a :class:`ProtocolError`."""
    try:
        return POLICIES[name]
    except KeyError:
        raise ProtocolError(
            f"unknown policy {name!r}; available: {sorted(POLICIES)}"
        ) from None


def _require_dict(body: object) -> dict:
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    return body


def _int_field(body: dict, name: str, default: Optional[int]) -> Optional[int]:
    value = body.get(name, default)
    if value is default:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {name!r} must be an integer")
    return value


def _settings_from(body: dict):
    """Build (validated) experiment settings from a request body."""
    from repro.experiments.common import ExperimentSettings

    defaults = ExperimentSettings()
    benchmarks = body.get("benchmarks")
    if benchmarks is not None:
        if not isinstance(benchmarks, list) or not all(
            isinstance(b, str) for b in benchmarks
        ):
            raise ProtocolError("field 'benchmarks' must be a list of strings")
        benchmarks = tuple(benchmarks)
    else:
        benchmarks = defaults.benchmarks
    try:
        return ExperimentSettings(
            seed=_int_field(body, "seed", defaults.seed),
            chips=_int_field(body, "chips", defaults.chips),
            trace_length=_int_field(body, "trace_length", defaults.trace_length),
            warmup=_int_field(body, "warmup", defaults.warmup),
            benchmarks=benchmarks,
        )
    except (ValueError, ReproError) as exc:
        raise ProtocolError(str(exc)) from None


class PopulationQuery:
    """One parsed population request."""

    __slots__ = ("settings", "policy", "detail", "stream", "key")

    def __init__(self, settings, policy, detail: str, stream: bool) -> None:
        from repro.engine.core import Engine

        self.settings = settings
        self.policy = policy
        self.detail = detail
        self.stream = stream
        self.key = Engine.population_key(settings, policy)


class SimulationQuery:
    """One parsed simulation request."""

    __slots__ = ("settings", "spec", "stream", "key")

    def __init__(self, settings, spec, stream: bool) -> None:
        from repro.engine.core import Engine

        self.settings = settings
        self.spec = spec
        self.stream = stream
        self.key = Engine.simulation_key(settings, spec)


class EstimateQuery:
    """One parsed yield-estimate request."""

    __slots__ = ("settings", "policy", "spec", "stream", "key")

    def __init__(self, settings, policy, spec, stream: bool) -> None:
        from repro.engine.core import Engine

        self.settings = settings
        self.policy = policy
        self.spec = spec
        self.stream = stream
        self.key = Engine.estimate_key(settings, policy, spec)


class ExperimentQuery:
    """One parsed experiment request."""

    __slots__ = ("name", "settings", "key")

    def __init__(self, name: str, settings) -> None:
        from repro.obs.provenance import config_hash

        self.name = name
        self.settings = settings
        self.key = "experiment:" + config_hash(
            {
                "name": name,
                "seed": settings.seed,
                "chips": settings.chips,
                "trace_length": settings.trace_length,
                "warmup": settings.warmup,
                "benchmarks": (
                    list(settings.benchmarks)
                    if settings.benchmarks is not None
                    else None
                ),
            }
        )


def parse_population(body: object) -> PopulationQuery:
    """Parse a ``POST /v1/population`` body."""
    body = _require_dict(body)
    policy = policy_by_name(str(body.get("policy", "nominal")))
    detail = str(body.get("detail", "summary"))
    if detail not in DETAILS:
        raise ProtocolError(f"field 'detail' must be one of {DETAILS}")
    return PopulationQuery(
        settings=_settings_from(body),
        policy=policy,
        detail=detail,
        stream=bool(body.get("stream", False)),
    )


def parse_simulation(body: object) -> SimulationQuery:
    """Parse a ``POST /v1/simulate`` body."""
    body = _require_dict(body)
    benchmark = body.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise ProtocolError("field 'benchmark' (string) is required")
    way_cycles = body.get("way_cycles")
    if way_cycles is not None:
        if not isinstance(way_cycles, list) or not all(
            entry is None or (isinstance(entry, int) and not isinstance(entry, bool))
            for entry in way_cycles
        ):
            raise ProtocolError(
                "field 'way_cycles' must be a list of integers / nulls"
            )
        way_cycles = tuple(way_cycles)
        ways = PAPER_HIERARCHY.l1d_geometry.associativity
        if len(way_cycles) != ways:
            raise ProtocolError(
                f"field 'way_cycles' has {len(way_cycles)} ways, "
                f"the L1D has {ways}"
            )
        try:
            WayConfig(latencies=way_cycles)
        except ReproError as exc:
            raise ProtocolError(f"field 'way_cycles': {exc}") from None
    uniform_latency = _int_field(body, "uniform_latency", None)
    if uniform_latency is not None and uniform_latency < 1:
        raise ProtocolError(
            f"field 'uniform_latency' must be >= 1, got {uniform_latency}"
        )
    settings = _settings_from(body)
    from repro.workloads import get_profile

    try:
        get_profile(benchmark)
    except ReproError as exc:
        raise ProtocolError(str(exc)) from None
    return SimulationQuery(
        settings=settings,
        spec=(benchmark, way_cycles, uniform_latency),
        stream=bool(body.get("stream", False)),
    )


def parse_estimate(body: object) -> EstimateQuery:
    """Parse a ``POST /v1/estimate`` body.

    The optional ``estimator`` object carries the spec fields
    (``kind``, ``ci_target``, ``pilot_chips``, ...); its identity joins
    the job key, so warm repeats of the same spec are byte-identical.
    """
    from repro.yieldmodel.estimators import EstimatorSpec

    body = _require_dict(body)
    policy = policy_by_name(str(body.get("policy", "nominal")))
    settings = _settings_from(body)
    try:
        spec = EstimatorSpec.from_payload(body.get("estimator", {}))
        spec.sample_cap(settings.chips)  # refuse a pilot-only sample cap
    except ReproError as exc:
        raise ProtocolError(str(exc)) from None
    return EstimateQuery(
        settings=settings,
        policy=policy,
        spec=spec,
        stream=bool(body.get("stream", False)),
    )


def parse_experiment(body: object) -> ExperimentQuery:
    """Parse a ``POST /v1/experiment`` body."""
    from repro.experiments import available_experiments

    body = _require_dict(body)
    name = body.get("name")
    if not isinstance(name, str) or not name:
        raise ProtocolError("field 'name' (string) is required")
    if name not in available_experiments():
        raise ProtocolError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        )
    return ExperimentQuery(name=name, settings=_settings_from(body))


# ----------------------------------------------------------------------
# response payloads
# ----------------------------------------------------------------------
def population_payload(result, detail: str = "summary") -> dict:
    """JSON payload for a population result.

    ``summary`` reports per-architecture base yield and the loss-reason
    histogram (the cheap, dashboard-shaped view); ``full`` embeds the
    complete store codec payload — bit-identical to what a direct
    :meth:`Engine.population` call would encode.
    """
    if detail == "full":
        return {"kind": "population", "detail": "full",
                "result": encode_population(result)}
    summary: Dict[str, object] = {
        "kind": "population",
        "detail": "summary",
        "population": result.population,
        "policy": result.policy.name,
        "constraints": {
            "delay_limit": result.constraints.delay_limit,
            "leakage_limit": result.constraints.leakage_limit,
        },
    }
    for label, horizontal in (("regular", False), ("horizontal", True)):
        breakdown = result.breakdown([], horizontal=horizontal)
        summary[label] = {
            "base_yield": breakdown.yield_with(None),
            "losses": {
                reason.name.lower(): count
                for reason, count in sorted(
                    breakdown.base_counts.items(), key=lambda kv: kv[0].name
                )
            },
        }
    return summary


def estimate_payload(report) -> dict:
    """JSON payload for one yield estimate (the store codec's shape)."""
    from repro.engine.codec import encode_estimate

    return {"kind": "estimate", "result": encode_estimate(report)}


def simulation_payload(result) -> dict:
    """JSON payload for one simulation result (the store codec's shape)."""
    return {"kind": "simulation", "result": encode_simulation(result)}


def experiment_payload(result) -> dict:
    """JSON payload for one experiment result (rows plus rendered text)."""
    return {
        "kind": "experiment",
        "experiment": result.experiment,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
        "text": result.text,
    }
