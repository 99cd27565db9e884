"""Provenance stamps for benchmark records.

A perf number with no provenance is noise: a regression report must say
*which code* (git SHA, dirty or not), *which interpreter* (version and
implementation), and *which configuration* (worker count, config hash)
produced each sample, or trend comparisons silently mix apples and
oranges. :func:`provenance_stamp` gathers exactly that — and nothing
host-identifying: records are meant to be committed and shared, so no
hostname, username, or absolute path ever lands in a stamp.

Git facts come from ``git`` subprocesses with short timeouts; outside a
repository (or without git on PATH) the SHA degrades to ``"unknown"``
and the dirty flag to ``None`` rather than failing the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
from typing import Dict, Optional

__all__ = [
    "config_hash",
    "git_revision",
    "provenance_stamp",
    "working_tree_dirty",
]


def _git(args, cwd: Optional[str] = None) -> Optional[str]:
    """Run one git query; ``None`` when git or the repo is unavailable."""
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout


def git_revision(cwd: Optional[str] = None) -> str:
    """The HEAD commit SHA, or ``"unknown"`` outside a git checkout."""
    out = _git(["rev-parse", "HEAD"], cwd=cwd)
    sha = (out or "").strip()
    return sha if sha else "unknown"


def working_tree_dirty(
    cwd: Optional[str] = None, ignore: Optional[os.PathLike] = None
) -> Optional[bool]:
    """Whether tracked files anywhere in the work tree carry uncommitted
    changes.

    Untracked files do not count (same semantics as ``git describe
    --dirty``), and neither does ``ignore``: the trend store ``repro
    bench run`` appends to may be tracked, and one run's records must not
    block the next run. ``None`` means "cannot tell" (no git, no
    repository) — callers that enforce a clean tree should treat that as
    clean rather than block runs from exported tarballs.
    """
    pathspec = [":(top)"]
    top = _git(["rev-parse", "--show-toplevel"], cwd=cwd) if ignore else None
    if top:
        root = pathlib.Path(top.strip()).resolve()
        path = pathlib.Path(cwd or ".", ignore).resolve()
        if root in path.parents:
            relative = path.relative_to(root).as_posix()
            pathspec.append(f":(top,exclude,literal){relative}")
    out = _git(
        ["status", "--porcelain", "--untracked-files=no", "--", *pathspec],
        cwd=cwd,
    )
    if out is None:
        return None
    return bool(out.strip())


def config_hash(identity: Dict[str, object]) -> str:
    """Short stable digest of a configuration identity (12 hex chars)."""
    body = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]


def provenance_stamp(
    workers: int = 1,
    config: Optional[Dict[str, object]] = None,
    cwd: Optional[str] = None,
    ignore: Optional[os.PathLike] = None,
) -> Dict[str, object]:
    """Everything a trend record needs to be comparable later.

    Parameters
    ----------
    workers:
        Configured worker-process count of the run.
    config:
        Identity of the benchmark configuration (settings, repeats, ...);
        hashed into a short ``config_hash`` so records group cheaply.
    cwd:
        Directory whose git checkout is stamped (default: process cwd).
    ignore:
        A file whose changes do not make the checkout dirty (see
        :func:`working_tree_dirty`).
    """
    return {
        "git_sha": git_revision(cwd=cwd),
        "dirty": working_tree_dirty(cwd=cwd, ignore=ignore),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "workers": int(workers),
        "config_hash": config_hash(config or {}),
    }
