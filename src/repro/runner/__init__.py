"""Parallel experiment execution, remembered for one runner's life.

See :mod:`repro.runner.core` for the execution model.  This package also
holds the *default runner* used by :func:`repro.workloads.sweep.run_sweep`
and :func:`repro.workloads.replicate.replicate_point` when no runner is
passed explicitly — the CLI installs one built from its ``--jobs`` flag
for one invocation, so every registered experiment runs through the same
pool and a unit two experiments share is simulated once.  Nothing is
written to disk.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.runner.core import ExperimentRunner

__all__ = [
    "ExperimentRunner",
    "get_default_runner",
    "using_runner",
]

_default_runner: ExperimentRunner | None = None


def get_default_runner() -> ExperimentRunner:
    """The installed runner, else a fresh serial one.

    A fresh runner per call keeps a library call's memory to its own
    batch: a process-wide one would serve, say, a compiled-kernel result
    to a later call made under ``kernels.use("python")``.
    """
    return _default_runner if _default_runner is not None else ExperimentRunner()


@contextmanager
def using_runner(runner: ExperimentRunner) -> Iterator[ExperimentRunner]:
    """Scope ``runner`` as the default for the duration of the block."""
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    try:
        yield runner
    finally:
        _default_runner = previous
