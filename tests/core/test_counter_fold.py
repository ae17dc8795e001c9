"""The one counter store and its read contract.

A profile owns one :class:`~repro.perf.PerfRecorder`, which its schedule
uses as ``schedule.perf``.  The C loop adds each successful call's tallies
to running cells of its kernel context; nothing on the call path reads
them.  They reach the recorder when it is read (``perf_snapshot()``,
``snapshot()``, ``counters``, ``profile.stats``) and when Python takes the
profile back from the context — so every value read is the one a fold
after every call would give.
"""

from __future__ import annotations

import random

import pytest

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.perf import KERNEL_TALLIES, PROFILE_COUNTERS
from repro.verify.fuzz import random_flood
from tests.core.test_admit_batch import needs_compiled
from tests.core.test_kernel_context import _job


def _counted(snapshot: dict) -> dict:
    """A ``perf_snapshot()`` without its wall-clock keys."""
    return {k: v for k, v in snapshot.items() if not k.startswith("decision")}


def _snapshot_key(name: str) -> str:
    return f"profile_{name}" if name in PROFILE_COUNTERS else name


def test_a_schedule_and_its_profile_share_one_recorder():
    arbitrator = QoSArbitrator(8)
    schedule = arbitrator.schedule
    assert schedule.perf is schedule.profile.stats
    assert schedule.profile.copy().stats is not schedule.perf


@needs_compiled
def test_perf_snapshot_after_one_job_submits_is_the_per_call_fold(monkeypatch):
    """N one-job submits and no read in between: ``perf_snapshot()`` holds
    what folding each call's tallies right after it gives (sums, and
    ``last_touched`` from the latest call that shifted), while a bare slot
    read before it sees none of them — the call path adds nothing."""
    case = random_flood(random.Random(5), min_jobs=80, max_jobs=80)
    with kernels.use("compiled"):
        impl = kernels.active()
        real = impl.admit_batch
        sums = dict.fromkeys(KERNEL_TALLIES, 0)

        def per_call_fold(c, n_jobs):
            status = real(c, n_jobs)
            assert status == 0
            cells = dict(zip(KERNEL_TALLIES, c.c[: len(KERNEL_TALLIES)]))
            for name, n in cells.items():
                if name != "last_touched":
                    sums[name] += n
            if cells["shift_ops"]:
                sums["last_touched"] = cells["last_touched"]
            return status

        monkeypatch.setattr(impl, "admit_batch", per_call_fold)
        arbitrator = QoSArbitrator(case.capacity)
        decisions = [arbitrator.submit(job) for job in case.jobs]
        monkeypatch.setattr(impl, "admit_batch", real)
    perf = arbitrator.schedule.perf
    assert perf.chains_probed == perf.commits == perf.shift_ops == 0
    snap = arbitrator.perf_snapshot()
    assert sums["chains_probed"] == sum(len(job.chains) for job in case.jobs)
    assert sums["commits"] == sum(d.admitted for d in decisions) > 0
    for name, value in sums.items():
        assert snap.get(_snapshot_key(name), 0) == value, name
    assert perf.chains_probed == sums["chains_probed"]  # folded by the read
    assert not any(perf.cells.tolist())


def _submit(arbitrator: QoSArbitrator, job, read: bool):
    """``submit``, then (``read``) a read of ``profile.stats``, which folds."""
    decision = arbitrator.submit(job)
    if read:
        arbitrator.schedule.profile.stats  # noqa: B018 - the read is the point
    return decision


@needs_compiled
@pytest.mark.parametrize("takeover", ("kernel switch", "error fallback"))
def test_c_counts_survive_a_kernel_switch_and_an_error_fallback(
    monkeypatch, takeover
):
    """C-decided counts that nobody has read yet survive the reference
    taking the profile over — after ``kernels.use("python")`` or after an
    error-status fallback — and land before the reference's own, so
    ``last_touched`` is the latest shift's; a call that fails adds none of
    its tallies.  ``watched`` reads ``profile.stats`` after every call (the
    value a fold after each call gives), ``lazy`` only at the end."""
    # C's last shift touches one segment, the reference's after it more,
    # so a fold that lands late shows in ``last_touched``.  The history
    # leaves free 2, 1, 2, 8 from 0, 1, 4, 10 (test_kernel_context's
    # _OVERFLOWS); with one cell of room the C loop commits the overflow
    # job's first task, then fails on its second (two segments).
    history = [_job(0, 0.0, (6, 10.0)), _job(1, 1.0, (1, 3.0))]
    overflow = _job(2, 2.5, (1, 0.5), (2, 8.0))
    later = [_job(3, 3.0, (1, 8.0))]  # three segments
    with kernels.use("compiled"):
        impl = kernels.active()
        real = impl.admit_batch
        failed = []

        def tight(c, n_jobs):
            cap, c.cap_buf = c.cap_buf, c.lo + c.n + 1
            totals = c.totals[:]
            status = real(c, n_jobs)
            c.cap_buf = cap
            failed.append((status, c.c[0], c.totals[:] == totals))
            return status

        arbitrators = {"watched": QoSArbitrator(8), "lazy": QoSArbitrator(8)}
        for name, arbitrator in arbitrators.items():
            reads = name == "watched"
            for job in history:
                assert _submit(arbitrator, job, reads).admitted
            if takeover == "kernel switch":
                jobs = [*history, *later]
                with kernels.use("python"):
                    for job in later:
                        _submit(arbitrator, job, reads)
            else:
                jobs = [*history, overflow]
                monkeypatch.setattr(impl, "admit_batch", tight)
                assert _submit(arbitrator, overflow, reads).admitted  # the fallback's
                monkeypatch.setattr(impl, "admit_batch", real)
    if takeover == "error fallback":
        # Each failing call had shifted before it failed, and kept nothing.
        assert failed == [(-1, 1, True), (-1, 1, True)]
    for arbitrator in arbitrators.values():
        snap = arbitrator.perf_snapshot()
        assert snap["chains_probed"] == len(jobs)
        assert snap["commits"] == arbitrator.admitted > len(history)
        assert snap["profile_shift_ops"] == sum(
            len(cp.placements) for cp in arbitrator.schedule.placements
        )
    want, got = (_counted(arbitrators[k].perf_snapshot()) for k in ("watched", "lazy"))
    assert got == want
