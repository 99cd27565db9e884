"""Reachability check: list the ``src/`` functions no entry point enters.

Runs the entry points below in this one process, at toy sizes, from a
temporary working directory that also holds the result store
(``REPRO_CACHE_DIR``), with ``sys.setprofile`` and
``threading.setprofile`` recording every function entered:

* importing the CLI; ``repro list``; ``repro all`` with ``--stats`` and
  ``--out``; ``repro run table6 --trace FILE``; ``repro run estimators``;
  ``repro run fig8 --estimator adaptive``; one run at ``--workers 2``
  (the parent's pool path); a warm rerun of each in a fresh engine (the
  store decoders);
* ``repro trace summary|flamegraph``, ``repro cache info|clear`` and
  ``repro bench run --suite all``, ``compare`` and ``report``;
* every serve endpoint through ``ServerThread``, on a server that
  writes a request log.

Each function defined under ``src/repro`` that none of them entered is
printed as ``path:qualname``. The exit status is 1 when one of them is
missing from the ``unreached`` block of DESIGN.md (one line per
function: ``path:qualname`` and the reason no one-process run takes it),
when a line there gives no reason, or when it names a function the
source no longer defines.

Usage::

    python tests/reachability.py

pytest does not collect this file (its name does not start with
``test_``); CI runs it in the smoke job.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import shutil
import sys
import tempfile
import threading
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DESIGN = ROOT / "DESIGN.md"
FENCE = "```unreached"

sys.path.insert(0, str(SRC))

#: Settings every experiment run shares unless its flags say otherwise.
TOY_ENV = {
    "REPRO_CHIPS": "150",
    "REPRO_TRACE": "300",
    "REPRO_WARMUP": "100",
    "REPRO_BENCHMARKS": "gzip,mcf",
    "REPRO_WORKERS": "1",
}


# ----------------------------------------------------------------------
# what src/ defines
# ----------------------------------------------------------------------
Location = Tuple[str, int]  # (file name as code objects carry it, first line)


def defined_functions() -> Dict[Location, Tuple[str, int]]:
    """``(file, first line) -> (path:qualname, lines)`` for every ``def``.

    The first line is the first decorator's when there is one, as in a
    code object's ``co_firstlineno``.
    """
    found: Dict[Location, Tuple[str, int]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        _collect(tree, "", str(path), path.relative_to(ROOT).as_posix(), found)
    return found


def _collect(node, prefix: str, filename: str, rel: str, found) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            found[(filename, first)] = (
                f"{rel}:{qualname}", child.end_lineno - first + 1
            )
            _collect(child, qualname + ".<locals>.", filename, rel, found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, f"{prefix}{child.name}.", filename, rel, found)
        else:
            _collect(child, prefix, filename, rel, found)


# ----------------------------------------------------------------------
# what the entry points enter
# ----------------------------------------------------------------------
class Profile:
    """The code objects entered while :meth:`active`, on this thread and
    on every thread started meanwhile."""

    def __init__(self) -> None:
        self.entered: Set[object] = set()

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self.entered.add(frame.f_code)

    @contextlib.contextmanager
    def active(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def locations(self) -> Set[Location]:
        return {(c.co_filename, c.co_firstlineno) for c in self.entered}


def fresh_process_state() -> None:
    """Forget what a new process would not have: compiled traces. (Each
    ``repro`` call builds its own engine, so no memo carries over.)"""
    from repro.workloads.compiled import clear_trace_cache

    clear_trace_cache()


def cli(profile: Profile, *argv: str) -> None:
    """One ``repro`` invocation, as a fresh process would run it."""
    from repro.cli import main

    fresh_process_state()
    out = io.StringIO()
    with profile.active(), contextlib.redirect_stdout(out):
        status = main(list(argv))
    if status != 0:
        sys.stdout.write(out.getvalue())
        raise SystemExit(f"repro {' '.join(argv)} exited {status}")


def serve(profile: Profile, log: pathlib.Path) -> None:
    """Every serve endpoint through ``ServerThread``, with a request log."""
    from repro.engine import Engine, EngineConfig
    from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

    engine = Engine(EngineConfig(workers=1, cache_dir=pathlib.Path("serve")))
    with profile.active():
        thread = ServerThread(
            engine, ServeConfig(port=0, request_log=str(log))
        )
        host, port = thread.start()
        try:
            with ServeClient(host, port, client_id="reach") as client:
                client.healthz()
                for _ in range(2):  # cold, then warm
                    client.population(seed=5, chips=64, detail="full")
                    client.simulate("gzip", seed=5, trace_length=300,
                                    warmup=100, uniform_latency=5)
                list(client.population_stream(seed=6, chips=64))
                for kind in ("fixed", "adaptive", "stratified", "is"):
                    client.estimate(seed=5, chips=600,
                                    estimator={"kind": kind})
                list(client._stream("/v1/estimate", {
                    "seed": 7, "chips": 300, "stream": True,
                    "estimator": {"kind": "adaptive", "ci_target": 0.1},
                }))
                list(client._stream("/v1/simulate", {
                    "benchmark": "mcf", "seed": 5, "trace_length": 300,
                    "warmup": 100, "stream": True,
                }))
                client.experiment("table2", seed=5, chips=64)
                client.metrics()
                client.metrics_text()
                client.dashboard()
                client.debug_traces()
                for method, path, body in (
                    ("POST", "/v1/population", {"policy": "bogus"}),
                    ("GET", "/nope", None),
                    ("GET", "/v1/population", None),
                ):
                    try:
                        client._request(method, path, body)
                    except ServeError:
                        pass
                    else:
                        raise SystemExit(f"{method} {path} was answered")
        finally:
            thread.stop()


def run_entry_points(profile: Profile, work: pathlib.Path) -> None:
    with profile.active():  # what importing the CLI runs, every entry runs
        import repro.cli  # noqa: F401
    cli(profile, "list")
    for _ in range(2):  # cold, then warm from the store
        cli(profile, "all", "--stats", "--out", "all")
        cli(profile, "run", "table6", "--seed", "77", "--trace", "t.jsonl")
        cli(profile, "run", "estimators", "--chips", "600")
        cli(profile, "run", "fig8", "--chips", "600", "--estimator",
            "adaptive", "--ci-target", "0.05", "--out", "fig8.txt")
        cli(profile, "run", "table2", "--seed", "8", "--workers", "2",
            "--stats")
    cli(profile, "trace", "summary", "t.jsonl", "--top", "5")
    cli(profile, "trace", "flamegraph", "t.jsonl")
    cli(profile, "cache", "info")
    cli(profile, "bench", "run", "--suite", "all", "--repeats", "1",
        "--warmup-runs", "0")
    cli(profile, "bench", "compare", "--warn-only")
    # A baseline file, as CI passes the parent commit's history.
    shutil.copy("BENCH_history.json", "parent.json")
    cli(profile, "bench", "compare", "--suite", "engine", "--baseline",
        "parent.json", "--warn-only")
    cli(profile, "bench", "report", "bench.html")
    # A bare output path: the trace comes from BENCH_trace.jsonl.
    cli(profile, "trace", "flamegraph", "flame.html")
    serve(profile, work / "requests.jsonl")
    cli(profile, "cache", "clear")


# ----------------------------------------------------------------------
# the verdict
# ----------------------------------------------------------------------
def exemptions(text: str) -> Dict[str, str]:
    """``path:qualname -> reason`` from DESIGN.md's ``unreached`` block."""
    lines = text.splitlines()
    try:
        start = lines.index(FENCE) + 1
    except ValueError:
        raise SystemExit(f"no {FENCE} block in {DESIGN}") from None
    exempt: Dict[str, str] = {}
    for line in lines[start:]:
        if line.startswith("```"):
            return exempt
        if line.strip():
            name, _, reason = line.strip().partition(" ")
            exempt[name] = reason.strip()
    raise SystemExit(f"unterminated {FENCE} block in {DESIGN}")


def main() -> int:
    exempt = exemptions(DESIGN.read_text(encoding="utf-8"))
    defined = defined_functions()
    profile = Profile()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        work = pathlib.Path(tmp)
        os.chdir(work)
        os.environ.update(TOY_ENV, REPRO_CACHE_DIR=str(work / "cache"))
        for name in ("REPRO_CACHE", "REPRO_TRACE_FILE"):
            os.environ.pop(name, None)
        run_entry_points(profile, work)
        os.chdir(ROOT)
    entered = profile.locations()
    unreached: List[Tuple[str, int]] = sorted(
        value for location, value in defined.items()
        if location not in entered
    )
    names = {name for name, _ in defined.values()}
    unreached_names = {name for name, _ in unreached}
    missing = [name for name, _ in unreached if name not in exempt]
    unknown = sorted(name for name in exempt if name not in names)
    bare = sorted(name for name, reason in exempt.items() if not reason)

    for name, lines in unreached:
        mark = " " if name in exempt else "!"
        print(f"{mark} {name} ({lines} lines)")
    print(
        f"{len(unreached)} of {len(defined)} functions in src/ never "
        f"entered ({sum(lines for _, lines in unreached)} lines); "
        f"{len(missing)} not exempt"
    )
    for name in sorted(set(exempt) & (names - unreached_names)):
        print(f"note: exempt but entered: {name}")
    for name in unknown:
        print(f"exempt but not defined in src/: {name}")
    for name in bare:
        print(f"exempt without a reason: {name}")
    return 1 if missing or unknown or bare else 0


if __name__ == "__main__":
    sys.exit(main())
