"""The engine imports the yield model; the yield model never imports the
engine; the model layers publish no metrics.

The engine runs the yield model's work (populations, estimates, the chip
job in ``repro.engine.chips``), so its imports of ``repro.yieldmodel``
belong at module top, where they are seen and ordered. The yield model
takes the engine's chip dispatcher as an argument, so it may name
``repro.engine`` only for type checkers. The engine's registry is the
only metrics registry, so the model layers, which have no engine in
reach, never import ``repro.obs.metrics`` (tracing spans stay theirs).
The rules are read from the source with :mod:`ast`; no module of
``src/repro`` is imported.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Tuple

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: One import: (line, imported module, inside a function, under
#: ``if TYPE_CHECKING:``).
Import = Tuple[int, str, bool, bool]


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(source: str, package: str) -> Iterator[Import]:
    """Every import in ``source``, a module of ``package``: relative ones
    resolved, and ``from X import y`` also reported as ``X.y``."""

    def visit(node: ast.AST, local: bool, typing_only: bool):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, local, typing_only
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base, local, typing_only
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}", local, typing_only
        for field, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from visit(
                        child,
                        local or isinstance(
                            node, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ),
                        typing_only or (
                            isinstance(node, ast.If)
                            and field == "body"
                            and _is_type_checking(node.test)
                        ),
                    )

    yield from visit(ast.parse(source), False, False)


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _engine_imports_at_run_time(source: str, package: str) -> List[int]:
    """Lines that import ``repro.engine`` outside ``if TYPE_CHECKING:``."""
    return sorted({
        line
        for line, name, _, typing_only in _imports(source, package)
        if _within(name, "repro.engine") and not typing_only
    })


def _local_yieldmodel_imports(source: str, package: str) -> List[int]:
    """Lines that import ``repro.yieldmodel`` inside a function."""
    return sorted({
        line
        for line, name, local, _ in _imports(source, package)
        if _within(name, "repro.yieldmodel") and local
    })


def _metrics_modules() -> List[str]:
    """``repro.obs.metrics`` and each name ``repro.obs`` re-exports from it."""
    init = (SRC / "repro" / "obs" / "__init__.py").read_text(encoding="utf-8")
    return ["repro.obs.metrics"] + [
        "repro.obs." + name.rsplit(".", 1)[1]
        for _, name, _, _ in _imports(init, "repro.obs")
        if name.startswith("repro.obs.metrics.")
    ]


def _metrics_imports(source: str, package: str) -> List[int]:
    """Lines that import ``repro.obs.metrics`` or a name from it."""
    banned = _metrics_modules()
    return sorted({
        line
        for line, name, _, _ in _imports(source, package)
        if any(_within(name, module) for module in banned)
    })


def _violations(package: str, check) -> List[str]:
    files = sorted((SRC / pathlib.Path(*package.split("."))).rglob("*.py"))
    assert files, f"no sources for {package}"
    found = []
    for path in files:
        parent = ".".join(path.relative_to(SRC).parent.parts)
        lines = check(path.read_text(encoding="utf-8"), parent)
        found.extend(f"{path.relative_to(SRC)}:{line}" for line in lines)
    return found


def test_yieldmodel_imports_no_engine_at_run_time():
    assert _violations("repro.yieldmodel", _engine_imports_at_run_time) == []


def test_engine_imports_yieldmodel_at_module_top():
    assert _violations("repro.engine", _local_yieldmodel_imports) == []


@pytest.mark.parametrize(
    "package",
    ["variation", "circuit", "cache", "schemes", "yieldmodel", "uarch",
     "workloads"],
)
def test_model_layers_import_no_metrics(package):
    assert _violations(f"repro.{package}", _metrics_imports) == []


@pytest.mark.parametrize(
    "source,lines",
    [
        ("from repro.obs.metrics import MetricsRegistry\n", [1]),
        ("def f():\n    from repro.obs.metrics import Gauge\n", [2]),
        ("import repro.obs.metrics\n", [1]),
        ("from repro.obs import metrics\n", [1]),
        ("from repro.obs import MetricsRegistry\n", [1]),
        ("from ...obs import metrics\n", [1]),
        ("from repro.obs.trace import span as trace_span\n", []),
        ("from repro.obs import span, tracing_enabled\n", []),
    ],
)
def test_metrics_scanner_sees_each_import_form(source, lines):
    """Direct, local, relative and re-exported imports of the metrics
    module are seen; tracing imports are not (from a module of
    ``repro.yieldmodel.estimators``)."""
    assert _metrics_imports(source, "repro.yieldmodel.estimators") == lines


@pytest.mark.parametrize(
    "source,engine_lines,local_lines",
    [
        ("from repro.engine.chips import BatchRunner\n", [1], []),
        ("import repro.engine\n", [1], []),
        ("from repro import engine\n", [1], []),
        ("from ... import engine\n", [1], []),
        (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.engine.chips import BatchRunner\n"
            "else:\n"
            "    from repro.engine import chips\n",
            [5], [],
        ),
        (
            "import typing\n"
            "if typing.TYPE_CHECKING:\n"
            "    import repro.engine.core\n",
            [], [],
        ),
        (
            "from repro.yieldmodel.analysis import YieldStudy\n"
            "def f():\n"
            "    from repro.yieldmodel import statistics\n"
            "class C:\n"
            "    def g(self):\n"
            "        def h():\n"
            "            import repro.yieldmodel.analysis\n",
            [], [3, 7],
        ),
        ("def f():\n    from .. import yieldmodel\n", [], [2]),
    ],
)
def test_scanner_sees_each_import_form(source, engine_lines, local_lines):
    """The scanner resolves relative imports (here from a module of
    ``repro.yieldmodel.estimators``), ``from`` forms, nested functions
    and both spellings of ``TYPE_CHECKING``."""
    package = "repro.yieldmodel.estimators"
    assert _engine_imports_at_run_time(source, package) == engine_lines
    assert _local_yieldmodel_imports(source, package) == local_lines
