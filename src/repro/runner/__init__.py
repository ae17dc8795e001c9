"""Parallel experiment execution with a content-addressed result cache.

See :mod:`repro.runner.core` for the execution model.  This package also
holds the *default runner* used by :func:`repro.workloads.sweep.run_sweep`
and :func:`repro.workloads.replicate.replicate_point` when no runner is
passed explicitly — the CLI installs one built from its ``--jobs`` /
``--cache-dir`` flags, so every registered experiment transparently runs
through the same pool and cache.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.runner.cache import CACHE_VERSION, ResultCache
from repro.runner.core import ExperimentRunner, RunnerConfig
from repro.runner.key import (
    KEY_VERSION,
    canonical_json,
    sweep_config_from_dict,
    sweep_config_to_dict,
    unit_key,
)

__all__ = [
    "CACHE_VERSION",
    "KEY_VERSION",
    "ExperimentRunner",
    "ResultCache",
    "RunnerConfig",
    "canonical_json",
    "get_default_runner",
    "sweep_config_from_dict",
    "sweep_config_to_dict",
    "unit_key",
    "using_runner",
]

_default_runner: ExperimentRunner | None = None


def get_default_runner() -> ExperimentRunner:
    """The runner used when callers don't pass one (serial, no cache)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner(RunnerConfig())
    return _default_runner


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
