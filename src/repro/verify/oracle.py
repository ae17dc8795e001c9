"""Exhaustive branch-and-bound scheduling oracle for small instances.

The greedy arbitrator decides online and irrevocably; the oracle is its
clairvoyant counterpart: given the *whole* workload up front it finds the
true maximum number of admissible jobs (ties broken toward higher total
path quality), enumerating every OR-path choice and every placement that
could matter.  It exists to measure greedy's optimality gap and to give the
fuzzer a ground truth on random instances — so it deliberately shares no
search code with :mod:`repro.core`: placements are enumerated over an
explicit candidate-time grid and feasibility is checked by the oracle's own
usage timeline.

Why a finite grid is exact
--------------------------
Take any feasible schedule for a fixed set of chains and repeatedly
*left-shift* each task to the smallest feasible start (holding the others
fixed).  A task that cannot move left is pinned either at its chain-earliest
time (job release or predecessor finish) or at the end of some other task —
otherwise the capacity function is unchanged in a small left neighbourhood
and the task could shift.  Iterating terminates (starts only decrease and
live on a finite lattice), so some optimal schedule has every start of the
form ``release_j + (sum of a subset of task durations)``: each start chains
through "ends at" relations that bottom out at a release, and no task
repeats in such a chain (starts strictly decrease along it).  The oracle
therefore enumerates starts from the *subset-sum closure*
``{release} ⊕ subset-sums of all candidate task durations`` clipped to each
task's feasible window — a superset of the pinned starts, hence exact.

The closure can explode for adversarial durations; :data:`OracleLimits`
bounds grid size and search nodes, and :class:`OracleLimitError` reports an
instance as *out of scope* rather than silently truncating the search.
Intended scale is ≤ ~8 jobs with a handful of tasks each (the fuzz and
regression suites stay well inside that).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ReproError
from repro.model.job import Job
from repro.model.quality import chain_quality

__all__ = [
    "OracleLimits",
    "OracleLimitError",
    "OraclePlacement",
    "OracleSolution",
    "exhaustive_best",
]


class OracleLimitError(ReproError):
    """The instance exceeds the oracle's enumeration budget."""


@dataclass(frozen=True, slots=True)
class OracleLimits:
    """Enumeration budget: instance size, grid size, search nodes."""

    max_jobs: int = 8
    max_grid: int = 4096
    max_nodes: int = 2_000_000


@dataclass(frozen=True, slots=True)
class OraclePlacement:
    """One task pinned by the oracle: ``(job_id, task index, start, ...)``."""

    job_id: int
    chain_index: int
    task_index: int
    task_name: str
    start: float
    end: float
    processors: int


@dataclass(frozen=True, slots=True)
class OracleSolution:
    """The oracle's verdict on one instance.

    ``admitted`` maps admitted ``job_id`` to the chosen chain index;
    ``placements`` realize that admission (auditor-checkably).
    """

    admitted: dict[int, int]
    placements: tuple[OraclePlacement, ...]
    total_quality: float
    nodes_explored: int

    @property
    def admitted_count(self) -> int:
        """Size of the optimal admitted set."""
        return len(self.admitted)


# ---------------------------------------------------------------------------
# The oracle's own capacity timeline (independent of core.profile)
# ---------------------------------------------------------------------------


class _Timeline:
    """Piecewise-constant processor usage supporting add/remove/fits.

    A deliberately simple breakpoint list — correctness over speed; the
    oracle's instances are tiny.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._times: list[float] = [0.0]
        self._usage: list[int] = [0]

    def _split(self, t: float) -> int:
        """Ensure a breakpoint at ``t``; return its index."""
        i = bisect_left(self._times, t)
        if i < len(self._times) and self._times[i] == t:
            return i
        insort(self._times, t)
        self._usage.insert(i, self._usage[i - 1] if i > 0 else 0)
        return i

    def fits(self, start: float, end: float, processors: int) -> bool:
        """True when ``processors`` more CPUs are free over ``[start, end)``."""
        if start < 0:
            return False
        # Segment containing ``start`` (usage is constant per segment), then
        # every segment beginning before ``end``.
        i = max(bisect_right(self._times, start) - 1, 0)
        while i < len(self._times) and self._times[i] < end:
            if self._usage[i] + processors > self.capacity:
                return False
            i += 1
        return True

    def add(self, start: float, end: float, processors: int) -> None:
        lo = self._split(start)
        hi = self._split(end)
        for i in range(lo, hi):
            self._usage[i] += processors

    def remove(self, start: float, end: float, processors: int) -> None:
        lo = self._split(start)
        hi = self._split(end)
        for i in range(lo, hi):
            self._usage[i] -= processors


# ---------------------------------------------------------------------------
# Candidate-time grid
# ---------------------------------------------------------------------------


def _candidate_grid(
    jobs: Sequence[Job], horizon: float, max_grid: int
) -> list[float]:
    """Releases ⊕ subset-sum closure of every candidate task duration.

    Clipped to ``[0, horizon]``; raises :class:`OracleLimitError` when the
    closure outgrows ``max_grid`` (the durations don't collapse onto a
    small lattice, so exhaustive search is out of scope).
    """
    durations: set[float] = set()
    releases: set[float] = {job.release for job in jobs}
    for job in jobs:
        for chain in job.chains:
            for task in chain.tasks:
                durations.add(task.duration)
    sums: set[float] = {0.0}
    span = horizon - min(releases, default=0.0)
    for job in jobs:
        for chain in job.chains:
            for task in chain.tasks:
                new = {s + task.duration for s in sums if s + task.duration <= span}
                sums |= new
                if len(sums) * len(releases) > max_grid:
                    raise OracleLimitError(
                        f"candidate grid exceeds {max_grid} points; durations "
                        "do not collapse onto a small lattice"
                    )
    grid = {r + s for r in releases for s in sums}
    return sorted(t for t in grid if t <= horizon)


def _instance_horizon(jobs: Sequence[Job]) -> float:
    """Upper bound on every start that could matter.

    Finite-deadline work is bounded by the latest absolute deadline.  For
    unconstrained chains, any left-shifted start is a release plus a sum of
    distinct task durations, so the latest release plus every job's longest
    chain serialized bounds it (and guarantees deadline-free jobs find the
    always-feasible "run after everything" placement in the grid).
    """
    horizon = 0.0
    serial_tail = 0.0
    last_release = 0.0
    for job in jobs:
        last_release = max(last_release, job.release)
        serial_tail += max(chain.total_duration for chain in job.chains)
        for chain in job.chains:
            due = job.absolute_deadline(chain)
            if math.isfinite(due):
                horizon = max(horizon, due)
    return max(horizon, last_release + serial_tail)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


@dataclass
class _Search:
    jobs: Sequence[Job]
    grid: list[float]
    timeline: _Timeline
    limits: OracleLimits
    nodes: int = 0
    best_count: int = -1
    best_quality: float = -math.inf
    best: tuple[dict[int, int], list[OraclePlacement]] = field(
        default_factory=lambda: ({}, [])
    )
    _chosen: list[OraclePlacement] = field(default_factory=list)
    _admitted: dict[int, int] = field(default_factory=dict)
    _quality: float = 0.0

    def run(self) -> OracleSolution:
        self._branch_job(0)
        admitted, placements = self.best
        return OracleSolution(
            admitted=dict(admitted),
            placements=tuple(placements),
            total_quality=self.best_quality if self.best_count >= 0 else 0.0,
            nodes_explored=self.nodes,
        )

    # -- job level ------------------------------------------------------

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limits.max_nodes:
            raise OracleLimitError(
                f"search exceeded {self.limits.max_nodes} nodes"
            )

    def _record_if_best(self) -> None:
        count = len(self._admitted)
        if count > self.best_count or (
            count == self.best_count and self._quality > self.best_quality
        ):
            self.best_count = count
            self.best_quality = self._quality
            self.best = (dict(self._admitted), list(self._chosen))

    def _branch_job(self, index: int) -> None:
        self._tick()
        if index == len(self.jobs):
            self._record_if_best()
            return
        # Bound: even admitting every remaining job cannot beat the best.
        optimistic = len(self._admitted) + (len(self.jobs) - index)
        if optimistic < self.best_count:
            return
        job = self.jobs[index]
        for chain_index, chain in enumerate(job.chains):
            q = chain_quality(chain)
            self._admitted[job.job_id] = chain_index
            self._quality += q
            self._branch_task(index, chain_index, 0, job.release)
            self._quality -= q
            del self._admitted[job.job_id]
        # Reject branch.  Tried last: admitting is never worse for the
        # bound, so good solutions are found early and prune harder.
        self._branch_job(index + 1)

    # -- task level -----------------------------------------------------

    def _branch_task(
        self, job_index: int, chain_index: int, task_index: int, earliest: float
    ) -> None:
        job = self.jobs[job_index]
        chain = job.chains[chain_index]
        if task_index == len(chain.tasks):
            self._branch_job(job_index + 1)
            return
        task = chain.tasks[task_index]
        due = job.release + task.deadline
        latest_start = due - task.duration
        if latest_start < earliest - 1e-9:
            return
        lo = bisect_left(self.grid, earliest - 1e-12)
        for gi in range(lo, len(self.grid)):
            start = self.grid[gi]
            if start > latest_start + 1e-12:
                break
            end = start + task.duration
            self._tick()
            if not self.timeline.fits(start, end, task.processors):
                continue
            self.timeline.add(start, end, task.processors)
            self._chosen.append(
                OraclePlacement(
                    job_id=job.job_id,
                    chain_index=chain_index,
                    task_index=task_index,
                    task_name=task.name,
                    start=start,
                    end=end,
                    processors=task.processors,
                )
            )
            self._branch_task(job_index, chain_index, task_index + 1, end)
            self._chosen.pop()
            self.timeline.remove(start, end, task.processors)


def exhaustive_best(
    jobs: Sequence[Job],
    capacity: int,
    limits: OracleLimits | None = None,
) -> OracleSolution:
    """Optimal admitted set for ``jobs`` on a ``capacity``-processor machine.

    Maximizes the number of admitted jobs; among equal counts, maximizes
    total path quality.  Rigid task model (the malleable model multiplies
    the placement space per task and is out of the oracle's scope).  Raises
    :class:`OracleLimitError` when the instance exceeds ``limits``.
    """
    limits = limits or OracleLimits()
    if len(jobs) > limits.max_jobs:
        raise OracleLimitError(
            f"{len(jobs)} jobs exceeds the oracle's {limits.max_jobs}-job scope"
        )
    horizon = _instance_horizon(jobs)
    grid = _candidate_grid(jobs, horizon, limits.max_grid)
    search = _Search(
        jobs=list(jobs),
        grid=grid,
        timeline=_Timeline(capacity),
        limits=limits,
    )
    return search.run()
