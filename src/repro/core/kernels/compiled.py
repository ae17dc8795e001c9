"""ctypes binding for the compiled decision kernel (``_kernels.c``).

Loads the shared object built by :mod:`repro.core.kernels.build` and
exposes :meth:`CompiledKernels.admit_batch` — the one-call batched
admission loop over a :class:`Context` the caller builds once per
profile.  Every array the context points at is a contiguous NumPy array
passed by raw pointer; the C side never allocates, so ownership stays
entirely with the caller.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

from repro.core.kernels.build import ABI_VERSION, ensure_built, notice
from repro.errors import ConfigurationError

__all__ = ["CompiledKernels", "Context", "load"]

_i64, _ptr = ctypes.c_int64, ctypes.c_void_p


class _Fact(ctypes.Structure):
    _fields_ = [("w", _i64), ("d", ctypes.c_double), ("r", ctypes.c_double),
                ("s", ctypes.c_double)]


class Context(ctypes.Structure):
    """``Prof`` of ``_kernels.c``, field for field (the loader compares
    the size and every field's offset): the profile's buffers and state,
    the scheduler flags, ONE input pointer (``record``, the packed job
    vector), the per-job scratch, two output pointers (``out_chain``,
    ``out_rows``), the quality accumulators, the counters and the no-fit
    facts.  Pointer fields take ``ndarray.ctypes.data``; whoever sets one
    keeps the array alive (:mod:`repro.core.kernels.batch` does)."""

    _fields_ = [
        *((name, _ptr) for name in (
            "times", "avail", "times_alt", "avail_alt", "prefix", "scr_t",
            "scr_a")),
        *((name, _i64) for name in (
            "cap_buf", "cur", "lo", "n", "capacity", "prefix_valid",
            "prefix_from", "policy", "use_dup", "use_dom", "use_cap",
            "do_compact")),
        ("record", _ptr),
        ("max_chains", _i64), ("max_tasks", _i64),
        *((name, _ptr) for name in (
            "dscratch", "iscratch", "out_chain", "out_rows")),
        ("qmode", _i64),
        ("q_possible", ctypes.c_double), ("q_sum", ctypes.c_double),
        ("c", _i64 * 13),  # N_COUNTERS
        ("nfacts", _i64), ("fact_evict", _i64),
        ("facts", _Fact * 64),  # NFACTS
    ]


class CompiledKernels:
    """Thin, stateless wrapper around the loaded shared object."""

    compiled = True
    supports_batch = True

    def __init__(self, path: Path) -> None:
        self.path = path
        lib = ctypes.CDLL(str(path))
        lib.repro_abi_version.restype = ctypes.c_int64
        lib.repro_abi_version.argtypes = ()
        lib.repro_admit_batch.restype = ctypes.c_int64
        lib.repro_admit_batch.argtypes = (ctypes.POINTER(Context), ctypes.c_int64)
        self._lib = lib
        got = int(lib.repro_abi_version())
        if got != ABI_VERSION:
            raise ConfigurationError(
                f"compiled kernel ABI {got} != expected {ABI_VERSION} "
                f"({path}); rebuild with python -m repro.core.kernels --build --force"
            )
        lib.repro_ctx_size.restype = ctypes.c_int64
        lib.repro_ctx_size.argtypes = ()
        size = int(lib.repro_ctx_size())
        if size != ctypes.sizeof(Context):
            raise ConfigurationError(
                f"compiled kernel context is {size} bytes, compiled.Context "
                f"{ctypes.sizeof(Context)} ({path}): layouts drifted"
            )
        lib.repro_ctx_fields.restype = ctypes.c_char_p
        lib.repro_ctx_fields.argtypes = ()
        lib.repro_ctx_offsets.restype = ctypes.POINTER(ctypes.c_int64)
        lib.repro_ctx_offsets.argtypes = ()
        names = lib.repro_ctx_fields().decode().split()
        theirs = dict(zip(names, lib.repro_ctx_offsets()[: len(names)]))
        mine = {name: getattr(Context, name).offset for name, _ in Context._fields_}
        for name in (*theirs, *mine):
            if theirs.get(name) != mine.get(name):
                raise ConfigurationError(
                    f"compiled kernel context has {name!r} at offset "
                    f"{theirs.get(name)}, compiled.Context at {mine.get(name)} "
                    f"({path}): layouts drifted"
                )

    def admit_batch(self, ctx, n_jobs: int) -> int:
        """Decide the ``n_jobs`` staged in ``ctx`` (a ``byref`` of a
        :class:`Context`); returns the C status code (0 = OK).  The driver
        in :mod:`repro.core.kernels.batch` owns the context, staging and
        result write-back."""
        return self._lib.repro_admit_batch(ctx, n_jobs)


_loaded: CompiledKernels | None = None


def load() -> CompiledKernels:
    """Build (if stale) and load the compiled kernel, cached per process.

    A cached artifact can be unloadable even when its mtime looks fresh:
    an interrupted build left a truncated ``.so`` (``CDLL`` raises
    ``OSError``) or an upgrade changed the ABI stamp
    (:class:`~repro.errors.ConfigurationError`).  Both trigger exactly
    one clean forced rebuild, announced with a ``::notice`` annotation —
    never a hard crash.  If even the rebuilt object cannot be loaded the
    failure is normalized to :class:`~repro.errors.ConfigurationError`
    so ``REPRO_KERNEL=auto`` falls back to the Python reference.
    """
    global _loaded
    if _loaded is None:
        path = ensure_built()
        try:
            _loaded = CompiledKernels(path)
        except (OSError, ConfigurationError) as exc:
            notice(
                f"kernel artifact {path} is stale or corrupt ({exc}); "
                "rebuilding"
            )
            try:
                _loaded = CompiledKernels(ensure_built(force=True))
            except OSError as rebuilt_exc:
                raise ConfigurationError(
                    f"rebuilt kernel at {path} still fails to load: "
                    f"{rebuilt_exc}"
                ) from rebuilt_exc
    return _loaded
