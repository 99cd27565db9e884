"""Fault and concurrency battery for the persistent result store.

Checks the store's invariants under the failures a shared cache meets:

* several processes saving overlapping and distinct keys under one cap;
* a writer killed between ``mkstemp`` and ``os.replace`` (or mid-write);
* a read-only or full disk;
* truncated and foreign entries, which must be recomputed, never served;
* two threads saving through one store, and orphaned temp files.

The invariants: a load returns ``None`` or a payload that some writer
saved, never a partial one; a damaged entry is discarded and recomputed;
the running byte total never counts low, and equals a fresh scan when
one process writes distinct keys; the cap holds after each rescan.
"""

from __future__ import annotations

import errno
import json
import os
import pathlib
import random
import subprocess
import sys
import threading
import time

import pytest

import repro.engine.store as store_module
from repro.engine.codec import encode_population
from repro.engine.core import Engine, EngineConfig
from repro.engine.store import SCHEMA_VERSION, ResultStore
from repro.experiments.common import ExperimentSettings
from repro.obs.metrics import MetricsRegistry

KIND = "fault"
WRITERS = 4
SHARED = [f"shared-{i}" for i in range(8)]
KILLED = 17

_TESTS = pathlib.Path(__file__).resolve().parent
_SRC = _TESTS.parent / "src"


def _key(name: str) -> str:
    return ResultStore.key_for(KIND, {"name": name})


def _own(writer: int):
    return [f"w{writer}-{i}" for i in range(16)]


def _payload_for(writer, name: str) -> dict:
    """The only payload ``writer`` ever saves under ``name``."""
    rows = 20 + (len(name) * 7 + (writer or 0) * 13) % 40
    return {
        "writer": writer,
        "name": name,
        "rows": [[writer, name, i * 0.1] for i in range(rows)],
    }


def _valid(name: str, loaded) -> bool:
    return (
        isinstance(loaded, dict)
        and loaded.get("writer") in range(WRITERS)
        and loaded == _payload_for(loaded["writer"], name)
    )


def _scan_bytes(store: ResultStore) -> int:
    return sum(path.stat().st_size for path in store.entries())


def _temps(root: pathlib.Path):
    return sorted(root.glob(f"*/{store_module._TMP_PREFIX}*"))


def _child(function: str, *args) -> subprocess.Popen:
    """Run ``function(*args)`` of this module in a fresh interpreter."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(_TESTS)!r})\n"
        "import test_store_faults as t\n"
        f"sys.exit(t.{function}(*sys.argv[1:]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


# ----------------------------------------------------------------------
# child-process bodies
# ----------------------------------------------------------------------
def concurrent_writer(root: str, writer: str, cap: str, go: str) -> int:
    """Save shared and own keys, loading others' keys in between."""
    writer_id = int(writer)
    metrics = MetricsRegistry()
    store = ResultStore(pathlib.Path(root), int(cap), metrics=metrics)
    rng = random.Random(writer_id)
    names = SHARED + _own(writer_id)
    everyone = SHARED + [n for w in range(WRITERS) for n in _own(w)]
    while not os.path.exists(go):
        time.sleep(0.001)
    bad = 0
    for _ in range(3):
        for name in rng.sample(names, len(names)):
            store.save(KIND, _key(name), _payload_for(writer_id, name))
            other = rng.choice(everyone)
            loaded = store.load(KIND, _key(other))
            if loaded is not None and not _valid(other, loaded):
                bad += 1
    corrupt = metrics.counter("store.load.corrupt").value
    print(f"bad={bad} corrupt={corrupt}")
    return 1 if bad or corrupt else 0


def killed_writer(root: str, name: str, phase: str) -> int:
    """Die with ``KILLED`` during a save, before its ``os.replace``."""
    store = ResultStore(pathlib.Path(root))
    if phase == "replace":
        os.replace = lambda *args, **kwargs: os._exit(KILLED)
    else:
        fdopen = os.fdopen

        def dying_fdopen(*args, **kwargs):
            handle = fdopen(*args, **kwargs)

            def write(text):
                # Half the entry reaches the temp file, then the writer dies.
                handle.buffer.write(text[: len(text) // 2].encode("utf-8"))
                handle.buffer.flush()
                os._exit(KILLED)

            handle.write = write
            return handle

        os.fdopen = dying_fdopen
    payload = {"cases": [_payload_for(1, f"{name}-{i}") for i in range(300)]}
    store.save(KIND, _key(name), payload)
    return 0  # not reached


# ----------------------------------------------------------------------
# several processes, one store
# ----------------------------------------------------------------------
def test_concurrent_processes_never_load_partial_payloads(tmp_path):
    root = tmp_path / "store"
    go = tmp_path / "go"
    cap = 40_000  # well under what the writers save: all of them evict
    children = [
        _child("concurrent_writer", root, writer, cap, go)
        for writer in range(WRITERS)
    ]
    time.sleep(0.5)
    go.touch()
    for child in children:
        out, _ = child.communicate(timeout=240)
        assert child.returncode == 0, out
    store = ResultStore(root, max_bytes=cap)
    for path in store.entries():
        wrapper = json.loads(path.read_text(encoding="utf-8"))
        assert wrapper["version"] == SCHEMA_VERSION
        assert _valid(wrapper["payload"]["name"], wrapper["payload"])
    assert _temps(root) == []
    for name in SHARED + [n for w in range(WRITERS) for n in _own(w)]:
        loaded = store.load(KIND, _key(name))
        assert loaded is None or _valid(name, loaded)
    with store._total_lock:
        kept = store._rescan()
    assert kept == _scan_bytes(store) <= cap


# ----------------------------------------------------------------------
# a writer killed mid-save
# ----------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["replace", "write"])
def test_killed_writer_leaves_no_partial_entry(tmp_path, phase):
    root = tmp_path / "store"
    store = ResultStore(root, max_bytes=10 * 1024 * 1024)
    old = _payload_for(0, "victim")
    store.save(KIND, _key("victim"), old)
    for name in ("victim", "fresh"):
        child = _child("killed_writer", root, name, phase)
        out, _ = child.communicate(timeout=120)
        assert child.returncode == KILLED, out
    # The dead writers' temp files are there, but they are not entries.
    assert len(_temps(root)) == 2
    assert all(temp.stat().st_size > 0 for temp in _temps(root))
    assert store.entries() == [store.path_for(KIND, _key("victim"))]
    assert store.info()["entries"] == 1
    assert store.load(KIND, _key("victim")) == old
    assert store.load(KIND, _key("fresh")) is None
    # An hour later, the next scan deletes them.
    stale = time.time() - 2 * store_module._STALE_TMP_SECONDS
    for temp in _temps(root):
        os.utime(temp, (stale, stale))
    ResultStore(root, max_bytes=10 * 1024 * 1024).save(
        KIND, _key("after"), _payload_for(2, "after")
    )
    assert _temps(root) == []


# ----------------------------------------------------------------------
# read-only and full disks
# ----------------------------------------------------------------------
def _read_only(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS))

    monkeypatch.setattr(store_module.tempfile, "mkstemp", refuse)


def _full_disk(monkeypatch):
    real_fdopen = os.fdopen

    def fdopen(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        budget = [300]
        write = handle.write

        def limited(text):
            budget[0] -= len(text)
            if budget[0] < 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(text)

        handle.write = limited
        return handle

    monkeypatch.setattr(store_module.os, "fdopen", fdopen)


@pytest.mark.parametrize("fault", [_read_only, _full_disk])
def test_failed_save_changes_nothing(tmp_path, monkeypatch, fault):
    store = ResultStore(tmp_path, max_bytes=10 * 1024 * 1024)
    store.save(KIND, _key("before"), _payload_for(0, "before"))
    total, entries = store._total, store.entries()
    fault(monkeypatch)
    store.save(KIND, _key("lost"), _payload_for(1, "lost"))  # must not raise
    monkeypatch.undo()
    assert store._total == total == _scan_bytes(store)
    assert store.entries() == entries
    assert store.load(KIND, _key("lost")) is None
    assert _temps(tmp_path) == []


# ----------------------------------------------------------------------
# truncated and foreign entries
# ----------------------------------------------------------------------
def _damages(text: str):
    wrapper = json.loads(text)
    return {
        "truncated": text[: len(text) // 2],
        "empty": "",
        "not-json": "\x00\xff garbage",
        "foreign-version": json.dumps({**wrapper, "version": 999}),
        "foreign-kind": json.dumps({**wrapper, "kind": "simulation"}),
        "no-payload": json.dumps({"version": SCHEMA_VERSION,
                                  "kind": "population"}),
        "list": "[1, 2, 3]",
    }


@pytest.mark.parametrize("damage", [
    "truncated", "empty", "not-json", "foreign-version", "foreign-kind",
    "no-payload", "list", "garbled-payload",
])
def test_damaged_entries_are_recomputed_not_served(tmp_path, damage):
    settings = ExperimentSettings(
        seed=11, chips=32, trace_length=1000, warmup=100,
        benchmarks=("gzip",),
    )
    first = Engine(EngineConfig(cache_dir=tmp_path))
    fresh = encode_population(first.population(settings))
    first.clear_memory()  # no live population left to share its chips
    key = Engine.population_key(settings)
    path = ResultStore(tmp_path).path_for("population", key)
    text = path.read_text(encoding="utf-8")
    if damage == "garbled-payload":
        wrapper = json.loads(text)
        path.write_text(json.dumps({**wrapper, "payload": {"cases": 1}}))
    else:
        path.write_text(_damages(text)[damage], encoding="utf-8")
        assert ResultStore(tmp_path).load("population", key) is None
        assert not path.exists()
        path.write_text(_damages(text)[damage], encoding="utf-8")
    engine = Engine(EngineConfig(cache_dir=tmp_path))
    result = engine.population(settings)
    assert engine.stats.jobs_cached_disk == 0
    assert engine.stats.jobs_run >= 1
    assert encode_population(result) == fresh
    assert path.read_text(encoding="utf-8") == text


# ----------------------------------------------------------------------
# threads, cap and temp files
# ----------------------------------------------------------------------
def _save_from_threads(store: ResultStore, names_per_thread) -> None:
    barrier = threading.Barrier(len(names_per_thread))

    def run(writer: int, names) -> None:
        barrier.wait()
        for name in names:
            store.save(KIND, _key(name), _payload_for(writer, name))

    threads = [
        threading.Thread(target=run, args=(writer, names))
        for writer, names in enumerate(names_per_thread)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def test_two_threads_keep_the_running_total_exact(tmp_path):
    store = ResultStore(tmp_path, max_bytes=64 * 1024 * 1024)
    _save_from_threads(
        store, [[f"t{t}-{i}" for i in range(80)] for t in range(2)]
    )
    assert len(store.entries()) == 160
    assert store._total == _scan_bytes(store)


def test_two_threads_under_a_small_cap_never_count_low(tmp_path):
    cap = 30_000
    store = ResultStore(tmp_path, max_bytes=cap)
    names = [f"n{i % 50}" for i in range(150)]
    _save_from_threads(store, [names, names[::-1]])
    assert store._total >= _scan_bytes(store)
    assert _scan_bytes(store) <= cap


def test_cap_holds_with_rare_rescans(tmp_path, monkeypatch):
    cap = 200_000
    metrics = MetricsRegistry()
    store = ResultStore(tmp_path, max_bytes=cap, metrics=metrics)
    scans = []
    rescan = ResultStore._rescan
    monkeypatch.setattr(
        ResultStore, "_rescan", lambda self: scans.append(1) or rescan(self)
    )
    saves = 400
    for i in range(saves):
        store.save(KIND, _key(f"cap-{i}"), _payload_for(i % WRITERS, "cap"))
        assert store._total == _scan_bytes(store) <= cap
    assert metrics.counter("store.evictions").value > 0
    assert 2 <= len(scans) <= saves // 10
    # Evicted down to 90% of the cap, the newest entries first to stay.
    assert store.load(KIND, _key(f"cap-{saves - 1}")) is not None
    assert store.load(KIND, _key("cap-0")) is None


def test_temp_files_are_not_entries_and_stale_ones_are_swept(tmp_path):
    store = ResultStore(tmp_path)
    store.save(KIND, _key("kept"), _payload_for(0, "kept"))
    entry = store.path_for(KIND, _key("kept"))
    stale = entry.parent / ".tmp-dead.json"
    young = entry.parent / ".tmp-live.json"
    stale.write_text('{"version": 1, "ki')
    young.write_text("{")
    hours_ago = time.time() - 2 * store_module._STALE_TMP_SECONDS
    os.utime(stale, (hours_ago, hours_ago))
    assert store.entries() == [entry]
    assert store.info()["entries"] == 1
    assert store.info()["bytes"] == entry.stat().st_size
    # The first capped save of a process scans, and sweeps stale temps.
    capped = ResultStore(tmp_path, max_bytes=10 * 1024 * 1024)
    capped.save(KIND, _key("next"), _payload_for(1, "next"))
    assert not stale.exists() and young.exists()
    assert capped._total == _scan_bytes(capped)
    # clear() removes entries and stale temps, never a live writer's.
    assert capped.clear() == 2
    assert young.exists() and capped.entries() == []
    os.utime(young, (hours_ago, hours_ago))
    assert capped.clear() == 0
    assert _temps(tmp_path) == []
    capped.save(KIND, _key("again"), _payload_for(2, "again"))
    assert capped._total == _scan_bytes(capped)
