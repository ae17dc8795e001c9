"""Environment record and guard.

Every result carries the block built here.  Two results are comparable
only when their ``host`` parts are equal; the commit is recorded beside
it and is expected to differ between a parent and a change.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core import kernels

__all__ = ["FSYNC_NOTE", "describe", "require_compiled_kernel", "comparable"]

FSYNC_NOTE = (
    "fsync latency is this sandbox's filesystem, not a storage device's; "
    "wal.sync_* compare two commits on one host and nothing else"
)


def _filesystem_of(path: Path) -> str:
    """``fstype`` of the mount holding ``path`` (longest matching mount point)."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        if (target == point or target.startswith(point.rstrip("/") + "/")) and len(
            point
        ) > len(best):
            best, fstype = point, fields[2]
    return fstype


def _git_commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def describe(root: Path, wal_parent: Path) -> dict[str, object]:
    return {
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_backend": kernels.kernel_backend(),
            "wal_filesystem": _filesystem_of(wal_parent),
        },
        "commit": _git_commit(root),
        "note": FSYNC_NOTE,
    }


def require_compiled_kernel() -> None:
    """Refuse to measure the pure-Python fallback.

    ``REPRO_KERNEL=auto`` falls back silently when no C compiler is
    present; that is a 10x different program and none of its numbers are
    comparable with a compiled run.
    """
    if kernels.kernel_backend() != "compiled":
        print(
            "e2e benchmark: the compiled decision kernel did not load "
            f"({kernels.stats.last_reason or 'REPRO_KERNEL=python?'}); refusing to "
            "benchmark the pure-Python fallback",
            file=sys.stderr,
        )
        sys.exit(2)


def comparable(a: dict[str, object], b: dict[str, object]) -> bool:
    return a.get("host") == b.get("host")
