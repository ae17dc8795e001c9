"""ctypes binding for the compiled decision kernel (``_kernels.c``).

Loads the shared object built by :mod:`repro.core.kernels.build` (ABI 12)
and exposes :meth:`CompiledKernels.admit_batch` — the one-call batched
admission loop over a :class:`Context` the caller builds once per
profile.  ``repro_admit_batch`` takes that struct and nothing else: ctypes
passes the ``Context`` instance itself to the ``POINTER(Context)``
argument, and the job count travels in its ``n_jobs`` field, because a
``byref`` object and a ``c_int64`` argument each cost more to convert
than the C loop spends on a shallow profile (``docs/perf.md``).  Every
array the context points at is a contiguous NumPy array passed by raw
pointer; the C side never allocates, so ownership stays entirely with
the caller.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

from repro.core.kernels.build import ABI_VERSION, ensure_built, explicit, notice
from repro.errors import ConfigurationError

__all__ = ["CompiledKernels", "Context", "load"]

_i64, _ptr = ctypes.c_int64, ctypes.c_void_p


class _Fact(ctypes.Structure):
    _fields_ = [("w", _i64), ("d", ctypes.c_double), ("r", ctypes.c_double),
                ("s", ctypes.c_double)]


class Context(ctypes.Structure):
    """``Prof`` of ``_kernels.c``, field for field (the loader compares
    the size and every field's offset): the profile's buffers (the live
    window, and the savepoint an error status restores from) and state,
    the scheduler flags, ONE input pointer (``record``, the packed job
    vector) with its job count (``n_jobs``), the per-job scratch, two
    output pointers (``out_chain``, ``out_rows``), the quality
    accumulators, a call's counters, the running tallies (``totals``) and
    the no-fit facts.  Pointer fields take ``ndarray.ctypes.data``;
    whoever sets one keeps the array alive
    (:mod:`repro.core.kernels.batch` does)."""

    _fields_ = [
        *((name, _ptr) for name in (
            "times", "avail", "times_alt", "avail_alt", "prefix", "scr_t",
            "scr_a")),
        *((name, _i64) for name in (
            "cap_buf", "lo", "n", "capacity", "prefix_valid",
            "prefix_from", "area_spent", "policy", "do_compact")),
        ("record", _ptr),
        ("n_jobs", _i64), ("progress", _i64), ("max_chains", _i64),
        ("max_tasks", _i64),
        *((name, _ptr) for name in (
            "dscratch", "iscratch", "out_chain", "out_rows")),
        ("q_possible", ctypes.c_double), ("q_sum", ctypes.c_double),
        ("c", _i64 * 12),  # N_COUNTERS
        ("totals", _i64 * 11),  # N_TALLIES
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
        lib.repro_admit_batch.argtypes = (ctypes.POINTER(Context),)
        self._lib = lib
        self._admit = lib.repro_admit_batch
        got = int(lib.repro_abi_version())
        if got != ABI_VERSION:
            raise ConfigurationError(
                f"compiled kernel ABI {got} != expected {ABI_VERSION} "
                f"({path}); rebuild with python -m repro.core.kernels --build --force"
            )
        lib.repro_progress.restype = ctypes.c_int64
        lib.repro_progress.argtypes = (ctypes.POINTER(Context),)
        #: ``progress(ctx)``: the jobs a running or finished call has
        #: published (their ``out_chain`` cells and rows may be read).
        self.progress = lib.repro_progress
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

    def admit_batch(self, ctx: Context, n_jobs: int) -> int:
        """Decide the ``n_jobs`` staged in ``ctx`` (a :class:`Context`,
        passed as is: the argtype takes the struct by reference); returns
        the C status code (0 = OK).  The count is stored in ``ctx.n_jobs``,
        the one argument C reads it from.  The driver in
        :mod:`repro.core.kernels.batch` owns the context, staging and
        result write-back."""
        ctx.n_jobs = n_jobs
        return self._admit(ctx)


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
    so ``REPRO_KERNEL=auto`` falls back to the Python reference.  A
    library ``$REPRO_KERNEL_LIB`` names is not rebuilt: one that does not
    load is refused at once, the same way.
    """
    global _loaded
    if _loaded is None:
        path = ensure_built()
        try:
            _loaded = CompiledKernels(path)
        except (OSError, ConfigurationError) as exc:
            if explicit() is not None:
                raise ConfigurationError(
                    f"REPRO_KERNEL_LIB={path} does not load: {exc}"
                ) from exc
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
