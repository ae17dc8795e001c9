"""Regression: the ``"auto"`` back-end resolver tracks the measured data.

``"auto"`` chooses between the two scans — the scalar walk and the
flat-array ``"kernel"`` walk — from the live segment count and whether
the compiled kernel loaded.  The original heuristic flipped to the
vectorized NumPy scan at 64 segments, where its fixed per-probe overhead
made it the *slowest* choice; ``"auto"`` picking the slowest scan on
committed measurement points is exactly the bug this file pins closed: at
every committed fragmentation point (``BENCH_sched.json``), the back-end
:func:`resolve_auto_backend` selects must not be the worst-measured one.

The committed serial decision-throughput data shows the compiled kernel
losing to pure Python at 100 live segments (fixed ctypes marshalling
cost) and winning by 1000, so ``"auto"`` routes to ``"kernel"`` from
``KERNEL_MIN_SEGMENTS`` up when the compiled library actually loaded
(``kernel_compiled``); with only the NumPy fallback active the crossover
is the later ``VECTOR_MIN_SEGMENTS``.

The tests read the committed benchmark report, so regenerating
``BENCH_sched.json`` on a machine with a different crossover will flag
the heuristic for re-tuning rather than silently shipping a bad
default.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.profile import (
    PROFILE_BACKENDS,
    AvailabilityProfile,
    KERNEL_MIN_SEGMENTS,
    VECTOR_MIN_SEGMENTS,
    resolve_auto_backend,
)
from repro.errors import ConfigurationError
from repro.service.service import ServiceConfig
from repro.workloads.sweep import SweepConfig

_BENCH = Path(__file__).resolve().parents[2] / "BENCH_sched.json"


def _report():
    if not _BENCH.exists():  # fresh checkout before any bench run
        pytest.skip("no committed BENCH_sched.json")
    return json.loads(_BENCH.read_text())


def _fragmentation_points():
    return _report()["fragmentation"]["points"]


def _committed_compiled() -> bool:
    """Whether the committed ``kernel`` rows timed the compiled kernel."""
    return _report()["fragmentation"]["kernel_backend"] == "compiled"


def _scan_p50s(point) -> dict[str, float]:
    return {name: point["backends"][name]["p50_us"] for name in ("scalar", "kernel")}


def test_auto_is_never_the_worst_backend_on_committed_points():
    compiled = _committed_compiled()
    for point in _fragmentation_points():
        segments = point["segments"]
        p50 = _scan_p50s(point)
        choice = resolve_auto_backend(segments, kernel_compiled=compiled)
        worst = max(p50, key=p50.get)
        assert choice != worst or len(set(p50.values())) == 1, (
            f"auto (kernel_compiled={compiled}) resolves to {choice} at "
            f"{segments} segments but the committed p50s are {p50} — "
            f"re-tune VECTOR_MIN_SEGMENTS/KERNEL_MIN_SEGMENTS"
        )


def test_crossover_is_between_committed_loss_and_win_points():
    """The crossover of the kernel implementation the committed report
    timed sits strictly inside the bracket its fragmentation points
    establish: above every point where ``kernel`` loses to the scalar
    walk, at or below every point where it wins."""
    crossover = KERNEL_MIN_SEGMENTS if _committed_compiled() else VECTOR_MIN_SEGMENTS
    losses, wins = [], []
    for point in _fragmentation_points():
        p50 = _scan_p50s(point)
        if p50["kernel"] > p50["scalar"]:
            losses.append(point["segments"])
        elif p50["kernel"] < p50["scalar"]:
            wins.append(point["segments"])
    if losses:
        assert crossover > max(losses)
    if wins:
        assert crossover <= min(wins)


def test_kernel_crossover_is_between_committed_throughput_points():
    """KERNEL_MIN_SEGMENTS sits inside the bracket the committed serial
    decision-throughput data establishes: the compiled kernel loses to
    pure Python at the backlog size where ``serial-python`` out-ran
    ``serial-kernel`` and wins where the order flips."""
    report = _report()
    throughput = report.get("decision_throughput")
    if not throughput:
        pytest.skip("no committed decision_throughput section")
    losses, wins = [], []
    for point in throughput["points"]:
        modes = point["modes"]
        if "serial-python" not in modes or "serial-kernel" not in modes:
            continue
        python_rate = modes["serial-python"]["decisions_per_sec"]
        kernel_rate = modes["serial-kernel"]["decisions_per_sec"]
        if kernel_rate < python_rate:
            losses.append(point["segments"])
        else:
            wins.append(point["segments"])
    if losses:
        assert KERNEL_MIN_SEGMENTS > max(
            s for s in losses if not wins or s < min(wins)
        )
    if wins:
        assert KERNEL_MIN_SEGMENTS <= min(wins)


def test_resolver_thresholds():
    # Without the compiled kernel: kernel (its NumPy fallback) only from
    # VECTOR_MIN_SEGMENTS up.
    assert resolve_auto_backend(0, kernel_compiled=False) == "scalar"
    assert (
        resolve_auto_backend(VECTOR_MIN_SEGMENTS - 1, kernel_compiled=False)
        == "scalar"
    )
    assert (
        resolve_auto_backend(VECTOR_MIN_SEGMENTS, kernel_compiled=False)
        == "kernel"
    )
    assert (
        resolve_auto_backend(10 * VECTOR_MIN_SEGMENTS, kernel_compiled=False)
        == "kernel"
    )
    # With the compiled kernel loaded: kernel from KERNEL_MIN_SEGMENTS up.
    assert resolve_auto_backend(0, kernel_compiled=True) == "scalar"
    assert (
        resolve_auto_backend(KERNEL_MIN_SEGMENTS - 1, kernel_compiled=True)
        == "scalar"
    )
    assert (
        resolve_auto_backend(KERNEL_MIN_SEGMENTS, kernel_compiled=True)
        == "kernel"
    )
    assert (
        resolve_auto_backend(10 * VECTOR_MIN_SEGMENTS, kernel_compiled=True)
        == "kernel"
    )
    # The compiled walk pays for itself before its NumPy fallback does.
    assert KERNEL_MIN_SEGMENTS < VECTOR_MIN_SEGMENTS


def test_resolver_default_asks_kernel_layer():
    # Between the two crossovers the answer depends on the loaded kernel.
    with kernels.use("python"):
        assert resolve_auto_backend(KERNEL_MIN_SEGMENTS) == "scalar"
    compiled = kernels.kernel_backend() == "compiled"
    assert resolve_auto_backend(KERNEL_MIN_SEGMENTS) == resolve_auto_backend(
        KERNEL_MIN_SEGMENTS, kernel_compiled=compiled
    )


def test_profile_scan_backend_follows_resolver():
    profile = AvailabilityProfile(4)
    assert profile.scan_backend() == resolve_auto_backend(1) == "scalar"
    for i in range(VECTOR_MIN_SEGMENTS + 1):
        profile.reserve(2.0 * i, 2.0 * i + 1.0, 1)
    # Above both crossovers "auto" resolves to kernel whichever kernel
    # implementation is loaded.
    assert profile.scan_backend() == resolve_auto_backend(len(profile)) == "kernel"
    # An explicit choice is never second-guessed by size.
    assert AvailabilityProfile(4, backend="kernel").scan_backend() == "kernel"


@pytest.mark.parametrize("name", ("vector", "tree", "adaptive"))
@pytest.mark.parametrize(
    "build",
    (
        lambda name: AvailabilityProfile(8, backend=name),
        lambda name: QoSArbitrator(8, backend=name),
        lambda name: ServiceConfig(capacity=8, backend=name),
        lambda name: SweepConfig(backend=name),
    ),
    ids=("AvailabilityProfile", "QoSArbitrator", "ServiceConfig", "SweepConfig"),
)
def test_deleted_backend_names_are_rejected_at_construction(build, name):
    """A stale name in a deployed config fails where the config is built,
    with a message that lists what is still valid."""
    with pytest.raises(ConfigurationError) as err:
        build(name)
    for valid in PROFILE_BACKENDS:
        assert repr(valid) in str(err.value)
