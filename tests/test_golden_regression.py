"""Golden regression tests for the headline experiments.

Table 6 and Figure 8 outputs at the small deterministic settings are
frozen as JSON fixtures under ``tests/golden/``. The experiments are
bit-deterministic for a given seed (at any worker count), so these catch
any unintended numeric drift in the circuit model, yield analysis or
pipeline simulator.

To regenerate after an *intended* model change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_regression.py

and commit the updated fixtures together with the change that moved the
numbers.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.experiments import ExperimentSettings, run_experiment

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Same small settings as the engine determinism suite.
SMALL = ExperimentSettings(
    seed=77, chips=48, trace_length=1500, warmup=500,
    benchmarks=("gzip", "mcf"),
)

#: Relative tolerance for float comparisons. The runs are deterministic,
#: so this only needs to absorb JSON number formatting.
REL_TOL = 1e-6

UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"


def _assert_matches(actual, golden, path="$"):
    """Structural comparison; floats compared with relative tolerance."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: expected mapping"
        assert sorted(actual) == sorted(golden), (
            f"{path}: keys {sorted(actual)} != golden {sorted(golden)}"
        )
        for key in golden:
            _assert_matches(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list), f"{path}: expected list"
        assert len(actual) == len(golden), (
            f"{path}: length {len(actual)} != golden {len(golden)}"
        )
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_matches(a, g, f"{path}[{i}]")
    elif isinstance(golden, float):
        assert actual == pytest.approx(golden, rel=REL_TOL, abs=1e-12), (
            f"{path}: {actual} != golden {golden}"
        )
    else:
        assert actual == golden, f"{path}: {actual!r} != golden {golden!r}"


def _check_or_update(name: str, payload: dict) -> None:
    fixture = GOLDEN_DIR / f"{name}.json"
    if UPDATE:
        fixture.parent.mkdir(parents=True, exist_ok=True)
        fixture.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"regenerated {fixture}")
    if not fixture.exists():
        pytest.fail(
            f"missing golden fixture {fixture}; run with "
            "REPRO_UPDATE_GOLDEN=1 to create it"
        )
    golden = json.loads(fixture.read_text(encoding="utf-8"))
    # Round-trip the live payload through JSON so both sides carry
    # identical type information (tuples -> lists etc.).
    _assert_matches(json.loads(json.dumps(payload)), golden)


def test_table6_matches_golden(module_engine):
    result = run_experiment("table6", SMALL, module_engine)
    _check_or_update("table6_small", {
        "census": result.data["census"],
        "degradations": result.data["degradations"],
        "weighted": result.data["weighted"],
        "headers": result.headers,
    })


def test_fig8_matches_golden(module_engine):
    result = run_experiment("fig8", SMALL, module_engine)
    _check_or_update("fig8_small", {
        "correlation": result.data["correlation"],
        "normalized_leakage": result.data["normalized_leakage"],
        "latency_ns": result.data["latency_ns"],
    })
