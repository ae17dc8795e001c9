"""A one-job decision crosses through the names the benchmark tracer wraps.

``benchmarks/e2e/trace.py`` times the C call by wrapping
``kernels.active().admit_batch`` on the loaded instance and the packer by
wrapping ``batch.flatten_jobs`` on the module; ``GreedyScheduler.schedule_job``
on the class is the Python decision.  ``submit`` reaches the C loop
through :func:`repro.core.kernels.batch.try_admit_one_compiled`, which
looks both names up at every call, so a wrapper installed the same way
sees every crossing: a fast path that called the library directly, or
packed without the module global, would leave the tracer's
``kernels.c_call`` / ``kernels.flatten`` spans empty.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.greedy import GreedyScheduler
from repro.core.kernels import batch as kernel_batch
from repro.model.job import Job
from repro.sim.arrivals import PoissonArrivals
from repro.sim.rng import RandomStreams
from repro.workloads.synthetic import SyntheticParams
from tests.core.test_admit_batch import needs_compiled

ROOT = Path(__file__).resolve().parents[2]


def _fig4(n: int) -> list:
    """The e2e benchmark's ``fig4`` stream: one shared chains tuple,
    Poisson releases, 64 processors."""
    chains = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5).tunable_job().chains
    times = PoissonArrivals(4.0, RandomStreams(7)).times(n)
    return [Job(chains=chains, release=t, job_id=i) for i, t in enumerate(times)]


@needs_compiled
def test_n_submits_make_n_crossings_one_flatten_and_no_python_decision(monkeypatch):
    jobs = _fig4(300)
    calls = {"c": 0, "flatten": 0, "schedule_job": 0}
    with kernels.use("compiled"):
        impl = kernels.active()
        crossing, flatten = impl.admit_batch, kernel_batch.flatten_jobs
        schedule_job = GreedyScheduler.schedule_job

        def counted(name, inner):
            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        monkeypatch.setattr(impl, "admit_batch", counted("c", crossing))
        monkeypatch.setattr(kernel_batch, "flatten_jobs", counted("flatten", flatten))
        monkeypatch.setattr(
            GreedyScheduler, "schedule_job", counted("schedule_job", schedule_job)
        )
        auto = QoSArbitrator(64)
        got = [auto.submit(job) for job in jobs]
        decided = dict(calls)
        ref = QoSArbitrator(64, backend="scalar")
        want = [ref.submit(job) for job in jobs]
    assert decided == {"c": len(jobs), "flatten": 1, "schedule_job": 0}
    assert got == want
    assert 0 < auto.admitted < len(jobs)
    assert auto.perf_snapshot()["batch_fallbacks"] == 0


@needs_compiled
def test_a_traced_serial_fig4_run_times_the_crossing():
    """The harness itself, traced, at 1/50 of its default size: the run
    checks its decisions, the C call and the one flatten are timed, and
    the spans cover most of the lap.  The floor is below the 0.91-0.93
    both this commit and its parent read on a 2-core x86_64 host: the
    harness's own loop between two stamps is unmeasured and fixed, so
    coverage falls as a decision gets cheaper."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--trace",
         "--workload", "serial_fig4", "--seconds", "0.2"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["kernels.c_call_s"] > 0
    assert metrics["kernels.flatten_s"] > 0
    assert metrics["greedy.choose_s"] == 0
    assert metrics["trace.coverage"] >= 0.85
