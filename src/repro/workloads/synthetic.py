"""The parameterizable tunable job of Figure 4 (Section 5.3).

"The parameterizable job consists of two chains, each with two tasks.  The
two configurations simply transpose the positions of the two tasks.  Each
task requires the same total amount of resources but with different shapes.
One task asks for ``x`` processors for time ``t``, whereas the other task
requests ``x*alpha`` processors for ``t/alpha`` amount of time.  The value
of ``alpha`` is chosen in the interval (0, 1] such that both ``x`` and
``x*alpha`` are integers."

Deadlines derive from the *laxity* parameter: "For a job released at time
``r``, the deadline of the first task is set to
``d1 = r + max(t, t/alpha)/(1 - laxity)``; the deadline of the second task
is set to ``d2 = r + (t + t/alpha)/(1 - laxity)``."

Naming follows Figure 5(b)'s discussion: **shape 1** is the chain whose
*first* task is the tall one ("shape 1 requires a larger number of
processors for its first task"), **shape 2** leads with the flat task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.resources import ProcessorTimeRequest
from repro.errors import WorkloadError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec

__all__ = ["SyntheticParams"]

_INT_TOL = 1e-9

#: Chain pairs memoized per (frozen, hashable) parameter set — see
#: :meth:`SyntheticParams._chains`.
_shared_chains: dict["SyntheticParams", tuple[TaskChain, TaskChain]] = {}


@dataclass(frozen=True, slots=True)
class SyntheticParams:
    """Parameters of the Figure-4 job.

    Attributes
    ----------
    x:
        Processor demand of the tall task (paper default 16).
    t:
        Duration of the tall task (paper default 25).
    alpha:
        Shape parameter in (0, 1]; the flat task is ``x*alpha`` processors
        for ``t/alpha`` time.  ``x*alpha`` must be a positive integer.
    laxity:
        Slack ratio in [0, 1): deadlines scale by ``1/(1-laxity)``.
    concurrency_factor:
        Degree-of-concurrency multiplier for the malleable model: each
        task's ``max_concurrency`` is ``ceil(width * concurrency_factor)``
        (default 1.0 — a task's logical concurrency equals its rigid width,
        so malleability can only narrow it, matching Section 5.4's framing
        of malleability as intra-task flexibility).
    """

    x: int = 16
    t: float = 25.0
    alpha: float = 0.25
    laxity: float = 0.5
    concurrency_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.x <= 0:
            raise WorkloadError(f"x must be positive, got {self.x}")
        if not self.t > 0:
            raise WorkloadError(f"t must be positive, got {self.t}")
        if not 0 < self.alpha <= 1:
            raise WorkloadError(f"alpha must be in (0, 1], got {self.alpha}")
        fw = self.x * self.alpha
        if abs(fw - round(fw)) > _INT_TOL or round(fw) < 1:
            raise WorkloadError(
                f"x*alpha must be a positive integer; x={self.x}, "
                f"alpha={self.alpha} gives {fw}"
            )
        if not 0 <= self.laxity < 1:
            raise WorkloadError(f"laxity must be in [0, 1), got {self.laxity}")
        if not self.concurrency_factor >= 1:
            raise WorkloadError(
                f"concurrency_factor must be >= 1, got {self.concurrency_factor}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def flat_width(self) -> int:
        """Processor demand of the flat task (``x * alpha``)."""
        return round(self.x * self.alpha)

    @property
    def flat_duration(self) -> float:
        """Duration of the flat task (``t / alpha``)."""
        return self.t / self.alpha

    @property
    def task_area(self) -> float:
        """Processor-time area of each task (both tasks are equal-area)."""
        return self.x * self.t

    @property
    def job_area(self) -> float:
        """Total processor-time demand of one job (two tasks)."""
        return 2 * self.task_area

    @property
    def d1(self) -> float:
        """Relative deadline of the first task."""
        return max(self.t, self.flat_duration) / (1 - self.laxity)

    @property
    def d2(self) -> float:
        """Relative deadline of the second task (the job deadline)."""
        return (self.t + self.flat_duration) / (1 - self.laxity)

    def offered_load(self, processors: int, mean_interval: float) -> float:
        """Mean offered utilization: job area / (capacity x interval)."""
        if processors <= 0 or mean_interval <= 0:
            raise WorkloadError("processors and mean_interval must be positive")
        return self.job_area / (processors * mean_interval)

    # ------------------------------------------------------------------
    # Tasks, chains, jobs
    # ------------------------------------------------------------------

    def _concurrency(self, width: int) -> int:
        return math.ceil(width * self.concurrency_factor)

    def tall_task(self, deadline: float, name: str = "tall") -> TaskSpec:
        """The ``x`` processors x ``t`` time task with the given deadline."""
        return TaskSpec(
            name,
            ProcessorTimeRequest(self.x, self.t),
            deadline=deadline,
            max_concurrency=self._concurrency(self.x),
        )

    def flat_task(self, deadline: float, name: str = "flat") -> TaskSpec:
        """The ``x*alpha`` processors x ``t/alpha`` time task."""
        return TaskSpec(
            name,
            ProcessorTimeRequest(self.flat_width, self.flat_duration),
            deadline=deadline,
            max_concurrency=self._concurrency(self.flat_width),
        )

    def shape1_chain(self) -> TaskChain:
        """Tall task first, flat task second."""
        return TaskChain(
            (self.tall_task(self.d1), self.flat_task(self.d2)),
            label="shape1",
            params={"shape": 1},
        )

    def shape2_chain(self) -> TaskChain:
        """Flat task first, tall task second (the transposition)."""
        return TaskChain(
            (self.flat_task(self.d1), self.tall_task(self.d2)),
            label="shape2",
            params={"shape": 2},
        )

    def _chains(self) -> tuple[TaskChain, TaskChain]:
        """Both configurations, shared across every job of these params.

        Task deadlines are *relative*, so the chains do not depend on the
        release time — every job stamped out by one ``SyntheticParams``
        carries value-identical (and here object-identical) chains.
        Chains are immutable by convention, so sharing is safe, keeps
        large generated streams compact, and lets identity-keyed caches
        downstream (e.g. the service WAL's chain encoder) hit.
        """
        cached = _shared_chains.get(self)
        if cached is None:
            if len(_shared_chains) >= 256:
                _shared_chains.clear()
            cached = (self.shape1_chain(), self.shape2_chain())
            _shared_chains[self] = cached
        return cached

    def tunable_job(self, release: float = 0.0) -> Job:
        """The two-configuration tunable job of Figure 4."""
        return Job.tunable_of(
            list(self._chains()),
            release=release,
            name="fig4-tunable",
        )

    def rigid_job(self, shape: int, release: float = 0.0) -> Job:
        """A non-tunable job pinned to configuration ``shape`` (1 or 2)."""
        if shape not in (1, 2):
            raise WorkloadError(f"shape must be 1 or 2, got {shape}")
        chain = self._chains()[shape - 1]
        return Job.rigid(chain, release=release, name=f"fig4-shape{shape}")

    def with_laxity(self, laxity: float) -> "SyntheticParams":
        """Copy with a different laxity."""
        return replace(self, laxity=laxity)

    def with_alpha(self, alpha: float) -> "SyntheticParams":
        """Copy with a different shape parameter."""
        return replace(self, alpha=alpha)
