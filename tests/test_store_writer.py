"""Byte identity of the result store's writer.

``ResultStore.save`` writes an entry as one C-encoded ``json.dumps``.
Warm ``.repro_cache/`` entries stay valid only if those bytes equal what
``json.dump(wrapper, handle, separators=(",", ":"))`` writes, so every
payload here is checked against both ``json.dumps`` and ``json.dump``.
The fixed cases pin real entries (a 200-chip population, a simulation,
an estimate) to SHA-256 digests recorded with the ``json.dump`` writer.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.codec import (
    encode_estimate,
    encode_population,
    encode_simulation,
)
from repro.engine.core import Engine, EngineConfig
from repro.engine.store import SCHEMA_VERSION, ResultStore
from repro.experiments.common import ExperimentSettings
from repro.yieldmodel.analysis import YieldStudy
from repro.yieldmodel.constraints import ConstraintPolicy
from repro.yieldmodel.estimators import EstimatorSpec

SEPARATORS = (",", ":")

_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "µ-chip", "Δt ≤ 1 ns", "☃\x00\"\\", "😀"])
)
_keys = (
    st.text()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.none()
)


def _extend(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
        | st.dictionaries(_keys, children, max_size=4)
    )


_values = st.recursive(_leaves, _extend, max_leaves=24)


@st.composite
def _nested(draw):
    """A value wrapped in up to six more containers."""
    value = draw(_values)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if draw(st.booleans()):
            value = [value] if draw(st.booleans()) else (value,)
        else:
            value = {draw(_keys): value}
    return value


_payloads = st.dictionaries(
    st.text(max_size=8) | _keys, _nested() | _values, max_size=5
)


def _saved_bytes(tmp_path, kind: str, payload: dict) -> bytes:
    store = ResultStore(tmp_path / "store")
    key = ResultStore.key_for(kind, {"case": "writer"})
    store.save(kind, key, payload)
    return store.path_for(kind, key).read_bytes()


def _reference_texts(kind: str, payload: dict):
    wrapper = {"version": SCHEMA_VERSION, "kind": kind, "payload": payload}
    handle = io.StringIO()
    json.dump(wrapper, handle, separators=SEPARATORS)
    return json.dumps(wrapper, separators=SEPARATORS), handle.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=_payloads)
@example(payload={})
@example(payload={"cases": [], "h_cases": [[]], "x": {}, "y": ()})
@example(payload={"cases": [[[[[[{"deep": [1.5, {"z": [()]}]}]]]]]]})
@example(payload={1: "a", 2.5: "b", True: "c", None: "d", "e": "f"})
@example(payload={"a": {0: [1, 2]}, "b": [{False: 1, -1.0: 2}]})
@example(payload={"cases": [(1, 2), ("ü", float("nan"))], "t": (None,)})
@example(payload={"nan": math.nan, "inf": [math.inf, -math.inf]})
@example(payload={"ascii": "naïve ∑ 日本 😀  ", "é": ["\x7f"]})
def test_saved_bytes_equal_json_dump(tmp_path, payload):
    saved = _saved_bytes(tmp_path, "bench", payload)
    one_shot, dumped = _reference_texts("bench", payload)
    assert saved == one_shot.encode("utf-8")
    assert saved == dumped.encode("utf-8")


# ----------------------------------------------------------------------
# real entries, pinned to the digests the json.dump writer produced
# ----------------------------------------------------------------------
#: SHA-256 of each fixed entry's file as the ``json.dump`` writer wrote it.
EXPECTED_SHA256 = {
    "population":
        "29fc5bb23306902ee2cf8fb28baba53d5f410b787de595d5b9b35f7a674f3d0f",
    "simulation":
        "788c7b0be7caaaf3ddb11a3936d4d41f0db3da11a0d85ac637782d4f8e68edc0",
    "estimate":
        "0e42a9375554e294d6daa50b0bb4aadcda06ec108f9f121b50e7be1fe02b46db",
}


def _fixed_payloads():
    """The three fixed entries: (kind, payload) pairs."""
    engine = Engine(EngineConfig(persistent=False))
    settings_ = ExperimentSettings(
        seed=2006, chips=200, trace_length=1500, warmup=300,
        benchmarks=("gzip",),
    )
    population = YieldStudy(seed=2006, count=200).run()
    simulation = engine.simulate(settings_, "mcf", way_cycles=(4, 4, 5, 5))
    estimate = engine.estimate(
        ExperimentSettings(seed=2006, chips=300),
        ConstraintPolicy("tail", 3.0, 8.0),
        estimator=EstimatorSpec(kind="is", pilot_chips=64),
    )
    return [
        ("population", encode_population(population)),
        ("simulation", encode_simulation(simulation)),
        ("estimate", encode_estimate(estimate)),
    ]


def test_fixed_entries_match_recorded_digests(tmp_path):
    for kind, payload in _fixed_payloads():
        saved = _saved_bytes(tmp_path, kind, payload)
        one_shot, dumped = _reference_texts(kind, payload)
        assert saved == dumped.encode("utf-8") == one_shot.encode("utf-8")
        assert hashlib.sha256(saved).hexdigest() == EXPECTED_SHA256[kind], kind

