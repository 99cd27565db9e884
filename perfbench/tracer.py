"""Span recorder and the wrappers that attribute a run to ``repro`` layers.

The traced run measures layers from outside the program: before any work
starts, :func:`install` replaces public functions of each ``src/repro``
layer with timing wrappers, at every place the callers look the name up
(a function imported with ``from x import f`` is patched in the importing
module too). Each wrapped call is a span with a name, start, end, parent
span and run id; a span's *self* time is its duration minus the time of
the wrapped calls it made.

The parent link travels in a :class:`contextvars.ContextVar`, so it is
right for threads (each starts with an empty context) and for asyncio
tasks (each copies the context of the code that created it). Calls that
happen hundreds of thousands of times per run (cache accesses, scheme
rescues, per-chip evaluation) are aggregated only; every other span is
kept in memory and written out by :meth:`Recorder.dump` when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_IDS = itertools.count(1)
_MARK = "_perfbench_wrapped"


class Recorder:
    """Span records plus per-name call, time and unit totals."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: (name, start, end, parent id, span id) of every kept span.
        self.spans: List[Tuple[str, float, float, Optional[int], int]] = []
        self._local = threading.local()
        self._tables: List[Dict[str, List[float]]] = []
        self._lock = threading.Lock()

    def _table(self) -> Dict[str, List[float]]:
        # One table per thread: no lock on the hot path, merged at the end.
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            with self._lock:
                self._tables.append(table)
        return table

    def close(self, name, frame, parent, start, end, keep, units) -> None:
        duration = end - start
        if parent is not None:
            parent[0] += duration
        table = self._table()
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0.0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += max(0.0, duration - frame[0])
        row[3] += units
        if keep:
            self.spans.append((
                name, start, end, None if parent is None else parent[1],
                frame[1],
            ))

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``units``."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in list(table.items()):
                acc = merged.setdefault(name, [0, 0.0, 0.0, 0.0])
                for index, value in enumerate(row):
                    acc[index] += value
        return {
            name: {"calls": acc[0], "total_s": acc[1], "self_s": acc[2],
                   "units": acc[3]}
            for name, acc in merged.items()
        }

    def span(self, name: str) -> "_Span":
        """A context manager recording one span (the benchmark's own roots)."""
        return _Span(self, name)

    def dump(self, path: str) -> None:
        """Write every kept span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, span_id in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


class _Span:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        self.parent = _CURRENT.get()
        self.frame = [0.0, next(_IDS)]
        self.token = _CURRENT.set(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        _CURRENT.reset(self.token)
        self.recorder.close(
            self.name, self.frame, self.parent, self.start, end, True, 0.0
        )


def _wrap(recorder: Recorder, name: str, fn: Callable, keep: bool,
          units: Optional[Callable]) -> Callable:
    close = recorder.close
    clock = time.perf_counter

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            frame = [0.0, next(_IDS)]
            token = _CURRENT.set(frame)
            start = clock()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                _CURRENT.reset(token)
                close(name, frame, parent, start, end, keep,
                      units(args, kwargs, result) if units else 0.0)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            frame = [0.0, next(_IDS)]
            token = _CURRENT.set(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                _CURRENT.reset(token)
                close(name, frame, parent, start, end, keep,
                      units(args, kwargs, result) if units else 0.0)

    setattr(wrapper, _MARK, True)
    return wrapper


# ----------------------------------------------------------------------
# what is wrapped: (span name, sites, keep span records, units counter)
# ----------------------------------------------------------------------
def _sim_instructions(args, kwargs, result) -> float:
    """Instructions ``Simulator.run`` executed, warmup included."""
    if result is None:
        return 0.0
    warmup = kwargs.get("warmup", args[2] if len(args) > 2 else 0)
    return float(result.instructions + warmup)


def _chip_range(args, kwargs, result) -> float:
    return float(args[3] - args[2])


def _one(args, kwargs, result) -> float:
    return 1.0


def _store_hit(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


def _spec_count(args, kwargs, result) -> float:
    specs = kwargs.get("specs", args[2] if len(args) > 2 else ())
    return float(len(specs))


def _codec_sites(name: str) -> Tuple[str, ...]:
    return (
        f"repro.engine.codec:{name}",
        f"repro.engine.core:{name}",
        f"repro.serve.protocol:{name}",
    )


Target = Tuple[str, Tuple[str, ...], bool, Optional[Callable]]

#: Functions every traced run wraps, named by the layer they belong to.
BATCH_TARGETS: Tuple[Target, ...] = (
    ("experiments.run_experiment", (
        "repro.experiments.runner:run_experiment",
        "repro.experiments:run_experiment",
    ), True, None),
    ("uarch.simulator_run", ("repro.uarch.simulator:Simulator.run",), True,
     _sim_instructions),
    ("uarch.pipeline", ("repro.uarch.pipeline:PipelineEngine.run",), True,
     None),
    ("cache.access", ("repro.cache.hierarchy:MemoryHierarchy.data_access",),
     False, None),
    ("cache.access",
     ("repro.cache.hierarchy:MemoryHierarchy.instruction_fetch",), False,
     None),
    ("workloads.compile", (
        "repro.workloads.compiled:get_compiled_trace",
        "repro.workloads:get_compiled_trace",
    ), True, None),
    ("variation.sample",
     ("repro.variation.columnar:ColumnarPopulationSampler.sample_range",),
     True, _chip_range),
    ("variation.sample",
     ("repro.variation.sampling:CacheVariationSampler.sample_chip",), False,
     _one),
    ("variation.sample",
     ("repro.variation.gridmodel:GridVariationSampler.sample_chip",), False,
     _one),
    ("circuit.evaluate", (
        "repro.circuit.columnar:evaluate_population_pair",
        "repro.yieldmodel.analysis:evaluate_population_pair",
        "repro.yieldmodel.estimators.sampling:evaluate_population_pair",
    ), True, None),
    ("circuit.evaluate",
     ("repro.circuit.cache_model:CacheCircuitModel.evaluate_pair",), False,
     None),
    ("yieldmodel.assemble", ("repro.yieldmodel.analysis:YieldStudy.assemble",),
     True, None),
    ("yieldmodel.breakdown",
     ("repro.yieldmodel.analysis:PopulationResult.breakdown",), True, None),
    ("yieldmodel.breakdown",
     ("repro.yieldmodel.analysis:PopulationResult.configuration_census",),
     True, None),
    ("yieldmodel.breakdown",
     ("repro.yieldmodel.analysis:PopulationResult.reconstrained",), True,
     None),
    ("engine.population", ("repro.engine.core:Engine.population",), True,
     None),
    ("engine.simulate_many", ("repro.engine.core:Engine.simulate_many",),
     True, _spec_count),
    ("engine.store.save", ("repro.engine.store:ResultStore.save",), True,
     None),
    ("engine.store.load", ("repro.engine.store:ResultStore.load",), True,
     _store_hit),
    ("engine.codec.encode", _codec_sites("encode_population"), True, None),
    ("engine.codec.encode", _codec_sites("encode_simulation"), True, None),
    ("engine.codec.encode", _codec_sites("encode_estimate"), True, None),
    ("engine.codec.decode", _codec_sites("decode_population"), True, None),
    ("engine.codec.decode", _codec_sites("decode_simulation"), True, None),
    ("engine.codec.decode", _codec_sites("decode_estimate"), True, None),
)


def _serve_sites(name: str) -> Tuple[str, ...]:
    return (f"repro.serve.protocol:{name}", f"repro.serve.server:{name}")


#: Functions only the serve-mix server wraps (on top of the batch set).
SERVE_TARGETS: Tuple[Target, ...] = (
    ("serve.request", ("repro.serve.server:YieldServer._dispatch",), True,
     None),
    ("serve.parse", _serve_sites("parse_population"), True, None),
    ("serve.parse", _serve_sites("parse_simulation"), True, None),
    ("serve.parse", _serve_sites("parse_estimate"), True, None),
    ("serve.parse", _serve_sites("parse_experiment"), True, None),
    ("serve.admission_wait",
     ("repro.serve.admission:AdmissionController.acquire",), True, None),
    ("serve.batch_wait", ("repro.serve.batcher:SimulationBatcher.simulate",),
     True, None),
    ("serve.flight", ("repro.serve.coalescer:Coalescer.run",), True, None),
    ("serve.encode", _serve_sites("population_payload"), True, None),
    ("serve.encode", _serve_sites("simulation_payload"), True, None),
    ("serve.encode", _serve_sites("estimate_payload"), True, None),
    ("serve.encode", _serve_sites("experiment_payload"), True, None),
    ("obs.rollup", ("repro.obs.rollup:RequestRollup.record",), True, None),
    ("obs.exposition", (
        "repro.obs.promtext:render_exposition",
        "repro.serve.server:render_exposition",
    ), True, None),
)


def _resolve(site: str):
    """(owner, attribute name, current value or None) of ``module:Attr.path``.

    The value is looked up in the owner itself (a class's own ``__dict__``),
    so an inherited or never-imported name resolves to ``None``.
    """
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    return owner, attr, vars(owner).get(attr)


def _rescue_classes() -> List[type]:
    """Every scheme class that defines its own ``rescue``."""
    import repro.schemes  # noqa: F401  (imports every scheme class)
    from repro.schemes.base import Scheme

    found, todo = [], [Scheme]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Scheme and "rescue" in vars(cls):
            found.append(cls)
    return found


def install(recorder: Recorder, targets: Sequence[Target]) -> None:
    """Wrap every target at every site it is looked up from."""
    for name, sites, keep, units in targets:
        wrapper = None
        for site in sites:
            owner, attr, current = _resolve(site)
            if current is None or getattr(current, _MARK, False):
                continue
            if wrapper is None:
                wrapper = _wrap(recorder, name, current, keep, units)
            setattr(owner, attr, wrapper)
    for cls in _rescue_classes():
        fn = vars(cls)["rescue"]
        if not getattr(fn, _MARK, False):
            setattr(cls, "rescue",
                    _wrap(recorder, "schemes.rescue", fn, False, None))
