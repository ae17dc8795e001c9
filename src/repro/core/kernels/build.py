"""On-demand build of the compiled decision kernel.

The kernel is a single hand-written C file (``_kernels.c``) compiled into
a shared object and bound through :mod:`ctypes` — deliberately *not* a
CPython extension: there is no ``Python.h`` dependency, no Cython, no
build isolation, just ``cc -O2 -fPIC -shared`` plus the two flags that
make bit-identity possible (``-fno-fast-math -ffp-contract=off``; fused
multiply-adds or value-unsafe reassociation would break the equality
contract with the pure-Python reference).

The build is lazy, cached by mtime, and *optional*: when no C compiler
is present :func:`ensure_built` raises :class:`ConfigurationError` and
the Python reference decides instead (see :mod:`repro.core.kernels`).
A library named by ``$REPRO_KERNEL_LIB`` is never built, rebuilt or
written: it is loaded as it is, or refused.
``python -m repro.core.kernels --build`` runs the same build explicitly
(the CI hook).
"""

from __future__ import annotations

import os
import platform
import shutil
import struct
import subprocess
import sys
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "ABI_VERSION",
    "artifact_intact",
    "ensure_built",
    "explicit",
    "find_compiler",
    "lib_path",
    "notice",
]

#: Must match ``ABI_VERSION`` in ``_kernels.c``; bump both together when
#: the exported signatures change so a stale cached ``.so`` is rebuilt
#: instead of being called with the wrong argument layout.
ABI_VERSION = 12

SOURCE = Path(__file__).with_name("_kernels.c")

CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")


def notice(message: str) -> None:
    """Emit a CI-visible ``::notice`` annotation (plain stderr elsewhere).

    GitHub Actions renders ``::notice`` lines as workflow annotations;
    locally they are just one informative stderr line.  Used when the
    kernel layer self-heals (e.g. rebuilding a corrupt artifact) so the
    event is observable without being an error.
    """
    print(f"::notice title=repro-kernels::{message}", file=sys.stderr)


def find_compiler() -> str | None:
    """Locate a C compiler (``$CC``, then cc/gcc/clang); None if absent."""
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def lib_path() -> Path:
    """Where the built shared object lives (or should live).

    ``$REPRO_KERNEL_LIB`` overrides everything (see :func:`explicit`);
    otherwise the object sits next to the source, tagged by platform so
    heterogeneous checkouts on shared filesystems do not collide.  Falls
    back to a per-user cache directory when the package directory is not
    writable (installed site-packages).
    """
    path = explicit()
    if path is not None:
        return path
    tag = f"{platform.system()}-{platform.machine()}".lower()
    candidate = SOURCE.parent / f"_kernels-{tag}.so"
    if os.access(SOURCE.parent, os.W_OK) or candidate.exists():
        return candidate
    cache = Path(
        os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")
    ) / "repro-kernels"
    return cache / candidate.name


def explicit() -> Path | None:
    """The library ``$REPRO_KERNEL_LIB`` names, or None when it is unset:
    a kept build (another checkout's, a sanitized one) that is loaded as
    it is, however old, and never written."""
    value = os.environ.get("REPRO_KERNEL_LIB")
    return Path(value) if value else None


def artifact_intact(path: Path) -> bool:
    """Cheap structural check that a shared object is not truncated.

    ``dlopen`` of a *partially written* ``.so`` is not a catchable error:
    the loader mmaps program segments that extend past EOF and the
    process dies with SIGBUS on first touch.  So completeness must be
    established *before* ever handing the file to ``ctypes``.  Linkers
    place the section-header table at the end of the object; an ELF
    whose header points that table inside the file is complete for
    loading purposes.  Non-ELF platforms (Mach-O, PE) only get the
    magic-independent minimum-size check — their loaders report
    truncation as a catchable load error, which :func:`~repro.core.
    kernels.compiled.load` turns into a rebuild.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return False
    if len(data) < 64:
        return False
    if data[:4] != b"\x7fELF":
        return True  # not ELF: leave judgement to the dynamic loader
    if data[4] != 2 or data[5] != 1:
        return True  # only 64-bit little-endian layouts are parsed here
    (e_shoff,) = struct.unpack_from("<Q", data, 0x28)
    e_shentsize, e_shnum = struct.unpack_from("<HH", data, 0x3A)
    return e_shoff + e_shentsize * e_shnum <= len(data)


def ensure_built(force: bool = False) -> Path:
    """Return the path of an up-to-date shared object, building if stale.

    An explicit library (:func:`explicit`) is returned as it is, with
    ``force`` too, when it is intact; otherwise this raises
    :class:`~repro.errors.ConfigurationError` naming it.  A cached
    artifact is reused only when it is both fresh (mtime ≥ source) and
    structurally intact (:func:`artifact_intact`); a
    truncated object left by an interrupted build triggers a clean,
    ``::notice``-announced rebuild instead of a hard crash at ``dlopen``
    time.  Raises :class:`~repro.errors.ConfigurationError` when no
    compiler is available or the compile fails; never leaves a partially
    written object behind (the build lands in a temp name and is renamed
    into place atomically).
    """
    path = explicit()
    if path is not None:
        if not artifact_intact(path):
            raise ConfigurationError(
                f"REPRO_KERNEL_LIB={path} is missing, truncated or not a "
                "shared object (it is loaded as it is, never built)"
            )
        return path
    path = lib_path()
    if (
        not force
        and path.exists()
        and path.stat().st_mtime >= SOURCE.stat().st_mtime
    ):
        if artifact_intact(path):
            return path
        notice(
            f"kernel artifact {path} is truncated or corrupt "
            "(interrupted build?); rebuilding"
        )
    cc = find_compiler()
    if cc is None:
        raise ConfigurationError(
            "no C compiler found (tried $CC, cc, gcc, clang); "
            "set REPRO_KERNEL=python or install a compiler"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    cmd = [cc, *CFLAGS, "-o", str(tmp), str(SOURCE), "-lm"]
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise ConfigurationError(
            f"kernel build failed ({' '.join(cmd)}):\n{result.stderr}"
        )
    os.replace(tmp, path)
    return path
