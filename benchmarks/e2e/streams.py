"""The three seeded job streams the end-to-end benchmark is built from.

No production trace exists (ROADMAP: "trace replay waits for a trace"),
so the traffic is *derived*, not observed: ``fig4`` is the paper's §5.3
synthetic tunable job, ``backlog`` and ``probe`` are modelled on the
MITuna tuning-campaign description in SNIPPETS.md (floods of small
independent jobs, each runnable in more than one shape).

Every generator is a pure function of ``(n, seed)``: explicit
``job_id``\\ s ``first_id .. first_id+n-1``, non-decreasing releases, all
randomness from named :class:`~repro.sim.rng.RandomStreams` substreams.
The program under test receives only the generated jobs.
"""

from __future__ import annotations

import numpy as np

from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.sim.arrivals import PoissonArrivals
from repro.sim.rng import RandomStreams
from repro.workloads.synthetic import SyntheticParams

__all__ = ["CAPACITY", "DEFAULT_SEED", "fig4", "backlog", "probe"]

#: Processors managed in every workload (the paper's P=64).
CAPACITY = 64

DEFAULT_SEED = 2024

#: Arrival rate of ``backlog`` and ``probe`` (jobs per time unit): about
#: 1.9x the capacity the narrow shapes need, so a backlog builds.
RATE = 8.0

_SMALL_WIDTHS = (1, 1, 2, 2, 3, 4, 6, 8)
_WIDE_WIDTHS = (24, 32, 48)


def fig4(n: int, seed: int = DEFAULT_SEED) -> list[Job]:
    """The repo's headline stream: §5.3 tunable jobs, Poisson arrivals.

    ``SyntheticParams(x=16, t=25, alpha=0.5, laxity=0.5)``, mean interval
    4.0 on P=64: about 32% admitted and a handful of live profile
    segments.  All jobs share the two chain objects, as every generator
    built on ``SyntheticParams`` does.
    """
    chains = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5).tunable_job().chains
    times = PoissonArrivals(4.0, RandomStreams(seed)).times(n)
    return [
        Job(chains=chains, release=t, job_id=i, name="fig4-tunable")
        for i, t in enumerate(times)
    ]


def _one_task(name: str, width: int, duration: float, deadline: float) -> TaskChain:
    task = TaskSpec(name, ProcessorTimeRequest(width, duration), deadline=deadline)
    return TaskChain((task,), label=name)


def _small_job(width: int, duration: float, release: float, job_id: int) -> Job:
    """A campaign job: narrow ``w x d`` or wide-short ``2w x d/2``."""
    deadline = 1000.0 * duration
    return Job(
        chains=(
            _one_task("narrow", width, duration, deadline),
            _one_task("wide-short", 2 * width, duration / 2, deadline),
        ),
        release=release,
        job_id=job_id,
        name="campaign",
    )


def _small_shapes(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    widths = np.asarray(_SMALL_WIDTHS)[rng.integers(0, len(_SMALL_WIDTHS), size=n)]
    durations = np.minimum(60.0, rng.lognormal(1.0, 1.0, size=n)) + 0.25
    return widths, durations


def backlog(n: int, seed: int = DEFAULT_SEED) -> list[Job]:
    """A tuning-campaign flood of small independent two-shape jobs.

    Poisson rate 8 per time unit, heavy-tailed durations, deadlines so
    lax (``1000 d``) that most jobs are admitted far in the future: about
    82% admitted over the first 30k jobs, by which point the profile
    holds about 5.8k live segments and is still growing.
    """
    streams = RandomStreams(seed)
    times = np.cumsum(streams.numpy("backlog-arrivals").exponential(1 / RATE, size=n))
    widths, durations = _small_shapes(streams.numpy("backlog-shapes"), n)
    return [
        _small_job(int(widths[i]), float(durations[i]), float(times[i]), i)
        for i in range(n)
    ]


def probe(n: int, seed: int, start: float, first_id: int) -> list[Job]:
    """Read-mostly traffic continuing from the end of a ``backlog`` prefix.

    85% wide jobs (``w`` in {24, 32, 48}, ``d ~ U[2, 8]``, alternative
    ``w/2 x 2d``, deadline ``100 d`` — shorter than the backlog is deep)
    that are rejected only after scanning the profile, 15% campaign jobs
    that still get in: about 13% admitted.
    """
    streams = RandomStreams(seed)
    times = start + np.cumsum(
        streams.numpy("probe-arrivals").exponential(1 / RATE, size=n)
    )
    rng = streams.numpy("probe-shapes")
    wide = rng.random(size=n) < 0.85
    wide_w = np.asarray(_WIDE_WIDTHS)[rng.integers(0, len(_WIDE_WIDTHS), size=n)]
    wide_d = rng.uniform(2.0, 8.0, size=n)
    widths, durations = _small_shapes(rng, n)
    jobs = []
    for i in range(n):
        release, job_id = float(times[i]), first_id + i
        if wide[i]:
            w, d = int(wide_w[i]), float(wide_d[i])
            jobs.append(
                Job(
                    chains=(
                        _one_task("wide", w, d, 100.0 * d),
                        _one_task("half", w // 2, 2 * d, 100.0 * d),
                    ),
                    release=release,
                    job_id=job_id,
                    name="probe",
                )
            )
        else:
            jobs.append(_small_job(int(widths[i]), float(durations[i]), release, job_id))
    return jobs
