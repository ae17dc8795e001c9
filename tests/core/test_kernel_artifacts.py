"""Stale/corrupt kernel artifacts and the fallback-telemetry contract.

An interrupted build (truncated ``.so``) or an ABI stamp left behind by
an older checkout must self-heal with one clean ``::notice``-announced
rebuild — never a hard crash — and when even the rebuild cannot produce
a loadable object, ``REPRO_KERNEL=auto`` must fall back to the Python
kernels with honest ``kernel_fallbacks`` telemetry while
``REPRO_KERNEL=compiled`` (and the ``--check`` CLI) must fail loudly.
A library ``REPRO_KERNEL_LIB`` names is loaded as it is or refused,
never rebuilt over.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.core import kernels
from repro.core.kernels import build, compiled
from repro.core.kernels.__main__ import main as kernels_main
from repro.errors import ConfigurationError


def _have_compiler() -> bool:
    return build.find_compiler() is not None


needs_compiler = pytest.mark.skipif(
    not _have_compiler(), reason="no C compiler available"
)


@pytest.fixture()
def scratch_lib(tmp_path, monkeypatch):
    """Point the cached kernel artifact at a scratch path and isolate the
    caches."""
    lib = tmp_path / "kernels.so"
    monkeypatch.delenv("REPRO_KERNEL_LIB", raising=False)
    monkeypatch.setattr(build, "lib_path", lambda: lib)
    monkeypatch.setattr(compiled, "_loaded", None)
    monkeypatch.setattr(kernels, "_active", None)
    monkeypatch.setattr(kernels, "_mode", None)
    return lib


@needs_compiler
def test_truncated_artifact_triggers_clean_rebuild(scratch_lib, capsys):
    path = build.ensure_built()
    blob = path.read_bytes()
    assert build.artifact_intact(path)
    path.write_bytes(blob[: len(blob) // 3])  # interrupted-build artifact
    # mtime is fresh, so the staleness check alone would accept the stub;
    # dlopen of it would SIGBUS — the structural check must catch it first.
    assert not build.artifact_intact(path)
    loaded = compiled.load()
    assert loaded.compiled and loaded.path == path
    assert path.read_bytes() == blob  # rebuilt bit-for-bit
    err = capsys.readouterr().err
    assert "::notice" in err and "rebuilding" in err


@needs_compiler
def test_abi_stamp_mismatch_rebuilds_once_then_fails_loud(
    scratch_lib, monkeypatch, capsys
):
    build.ensure_built()
    monkeypatch.setattr(compiled, "ABI_VERSION", 999)
    with pytest.raises(ConfigurationError, match="ABI"):
        compiled.load()
    err = capsys.readouterr().err
    assert "::notice" in err  # it did announce and attempt the rebuild


def test_unloadable_rebuild_normalizes_to_configuration_error(
    scratch_lib, monkeypatch, capsys
):
    scratch_lib.write_bytes(b"\x7fELF garbage, not a shared object")
    monkeypatch.setattr(
        compiled, "ensure_built", lambda force=False: scratch_lib
    )
    with pytest.raises(ConfigurationError, match="still fails to load"):
        compiled.load()
    assert "::notice" in capsys.readouterr().err

    # ...which is exactly what lets auto mode fall back with telemetry.
    before = kernels.stats.fallbacks
    assert kernels.set_kernel("auto") is not None
    assert kernels.kernel_backend() == "python"
    assert kernels.stats.fallbacks == before + 1
    assert "still fails to load" in kernels.stats.last_reason


def test_use_round_trips_backend_selection(scratch_lib, monkeypatch):
    monkeypatch.setattr(
        compiled,
        "load",
        lambda: (_ for _ in ()).throw(ConfigurationError("broken binding")),
    )
    kernels.set_kernel("python")
    assert kernels.kernel_backend() == "python"
    with kernels.use("python"):
        assert kernels.kernel_backend() == "python"
    # Restored to the pinned mode afterwards, not to the env default.
    assert kernels.kernel_backend() == "python"


def test_check_cli_exits_nonzero_on_broken_binding(
    scratch_lib, monkeypatch, capsys
):
    monkeypatch.setattr(
        compiled,
        "load",
        lambda: (_ for _ in ()).throw(ConfigurationError("broken binding")),
    )
    assert kernels_main(["--check"]) == 1
    assert "compiled kernel unavailable" in capsys.readouterr().err


@needs_compiler
def test_check_cli_exits_zero_when_compiled_loads(scratch_lib, capsys):
    assert kernels_main(["--check"]) == 0
    assert capsys.readouterr().err == ""


def test_forced_load_failure_increments_fallback_telemetry(
    scratch_lib, monkeypatch
):
    monkeypatch.setattr(
        compiled,
        "load",
        lambda: (_ for _ in ()).throw(ConfigurationError("forced failure")),
    )
    before = kernels.stats.fallbacks
    kernels.set_kernel("auto")
    assert kernels.kernel_backend() == "python"
    assert kernels.stats.fallbacks == before + 1
    assert kernels.stats.last_reason == "forced failure"
    with pytest.raises(ConfigurationError, match="REPRO_KERNEL=compiled"):
        kernels.set_kernel("compiled")


@pytest.fixture()
def explicit_lib(tmp_path, monkeypatch):
    """A kept build behind ``REPRO_KERNEL_LIB``, older than ``_kernels.c``
    and carrying trailing bytes no build of the source writes."""
    with kernels.use("compiled"):
        built = kernels.active().path
    lib = tmp_path / "kept.so"
    lib.write_bytes(built.read_bytes() + b"kept build")
    source_mtime = build.SOURCE.stat().st_mtime
    os.utime(lib, (source_mtime - 3600, source_mtime - 3600))
    monkeypatch.setenv("REPRO_KERNEL_LIB", str(lib))
    monkeypatch.setattr(compiled, "_loaded", None)
    monkeypatch.setattr(kernels, "_active", None)
    monkeypatch.setattr(kernels, "_mode", None)
    return lib


@needs_compiler
def test_an_older_explicit_library_is_loaded_as_it_is(explicit_lib):
    before = explicit_lib.read_bytes(), explicit_lib.stat().st_mtime_ns
    assert build.ensure_built() == explicit_lib
    assert build.ensure_built(force=True) == explicit_lib
    loaded = compiled.load()
    assert loaded.compiled and loaded.path == explicit_lib
    assert (explicit_lib.read_bytes(), explicit_lib.stat().st_mtime_ns) == before
    assert not explicit_lib.with_name(explicit_lib.name + ".tmp").exists()


@needs_compiler
@pytest.mark.parametrize("damage", ("missing", "truncated", "wrong ABI"))
def test_an_explicit_library_that_cannot_load_is_refused_by_name(
    explicit_lib, monkeypatch, capsys, damage
):
    if damage == "missing":
        explicit_lib.unlink()
    elif damage == "truncated":
        blob = explicit_lib.read_bytes()
        explicit_lib.write_bytes(blob[: len(blob) // 3])
    else:
        monkeypatch.setattr(compiled, "ABI_VERSION", 999)
    before = explicit_lib.read_bytes() if explicit_lib.exists() else None
    with pytest.raises(ConfigurationError, match=str(explicit_lib)):
        compiled.load()
    after = explicit_lib.read_bytes() if explicit_lib.exists() else None
    assert after == before  # never written, never built
    assert "::notice" not in capsys.readouterr().err  # no rebuild attempted
    fallbacks = kernels.stats.fallbacks
    assert kernels.set_kernel("auto") is not None
    assert kernels.kernel_backend() == "python"
    assert kernels.stats.fallbacks == fallbacks + 1
    assert str(explicit_lib) in kernels.stats.last_reason
