"""The compiled decision kernel: the C admission loop and its loader.

One entry point does work — the admission loop behind
:meth:`repro.core.arbitrator.QoSArbitrator.submit` and ``admit_batch``,
the only code that reads the availability profile as flat arrays:

* ``_kernels.c`` — hand-written C, built on demand by :mod:`.build` and
  bound via ctypes in :mod:`.compiled` (no Cython, no ``Python.h``);
* :mod:`.batch` — flattening, the per-profile kernel context and the
  write-back around the one C call.

There is no Python port of the loop.  Without the compiled kernel every
decision is the reference's (:class:`~repro.core.greedy.GreedyScheduler`
over the profile's lists), bit-identical by the contract the
differential fuzzer enforces — see ``docs/perf.md``, "Who decides, who
scans".

Selection is controlled by the ``REPRO_KERNEL`` environment variable,
read lazily on first use:

* ``auto`` (default) — compiled when a C compiler (or a cached build) is
  available, the reference otherwise;
* ``compiled`` — require the compiled kernel; raise
  :class:`~repro.errors.ConfigurationError` if it cannot be built;
* ``python`` — no C: the reference decides everything (the
  differential-fuzz oracle mode).

:func:`kernel_backend` and :data:`stats` surface what actually loaded —
``perf_snapshot()`` reports them as ``kernel_backend`` and
``kernel_fallbacks`` so cross-machine benchmark comparisons can verify
which path ran.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ConfigurationError

__all__ = [
    "KERNEL_MODES",
    "active",
    "kernel_backend",
    "note_fallback",
    "requested_mode",
    "set_kernel",
    "stats",
    "use",
]

#: Valid values of the ``REPRO_KERNEL`` environment variable.
KERNEL_MODES = ("auto", "compiled", "python")


class KernelStats:
    """Process-wide kernel-selection telemetry (see ``perf_snapshot``)."""

    __slots__ = ("fallbacks", "last_reason")

    def __init__(self) -> None:
        self.fallbacks = 0
        self.last_reason = ""


#: Global fallback counter: bumped when a compiled path was requested or
#: expected but the reference had to decide instead.
stats = KernelStats()


class _NoKernel:
    """What :func:`active` returns when no C is loaded: nothing to call,
    two flags that say so."""

    compiled = False
    supports_batch = False


_active = None
_mode: str | None = None


def requested_mode() -> str:
    """The ``REPRO_KERNEL`` setting (validated; default ``auto``)."""
    mode = os.environ.get("REPRO_KERNEL", "auto")
    if mode not in KERNEL_MODES:
        raise ConfigurationError(
            f"REPRO_KERNEL must be one of {KERNEL_MODES}, got {mode!r}"
        )
    return mode


def note_fallback(reason: str) -> None:
    """Record one compiled→python fallback event (kept in :data:`stats`)."""
    stats.fallbacks += 1
    stats.last_reason = reason


def _load(mode: str):
    if mode == "python":
        return _NoKernel
    try:
        from repro.core.kernels import compiled

        return compiled.load()
    except ConfigurationError as exc:
        if mode == "compiled":
            raise ConfigurationError(
                f"REPRO_KERNEL=compiled but the compiled kernel is "
                f"unavailable: {exc}"
            ) from exc
        note_fallback(str(exc))
        return _NoKernel


def active():
    """The selected kernel implementation (loaded lazily, then cached)."""
    global _active, _mode
    if _active is None:
        _mode = requested_mode()
        _active = _load(_mode)
    return _active


def kernel_backend() -> str:
    """``"compiled"`` or ``"python"`` — what :func:`active` resolves to."""
    return "compiled" if active().compiled else "python"


def set_kernel(mode: str) -> str:
    """Force a kernel implementation at runtime; returns the prior mode.

    Benchmarks and tests use this to pin a side of the differential
    matrix regardless of the environment variable.
    """
    global _active, _mode
    if mode not in KERNEL_MODES:
        raise ConfigurationError(
            f"kernel mode must be one of {KERNEL_MODES}, got {mode!r}"
        )
    previous = _mode if _mode is not None else requested_mode()
    _mode = mode
    _active = _load(mode)
    return previous


@contextmanager
def use(mode: str) -> Iterator[None]:
    """Context manager pinning the kernel implementation temporarily."""
    previous = set_kernel(mode)
    try:
        yield
    finally:
        set_kernel(previous)
