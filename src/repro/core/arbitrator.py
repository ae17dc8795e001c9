"""The system-level QoS arbitrator (Section 3).

"The QoS arbitrator takes advantage of the flexible program specification
provided by QoS agents to enhance system utilization while satisfying the
predictability requirements of each application. ... The QoS arbitrator
scheduling algorithms first choose the best execution path, and then make an
assignment of which processors will execute which application tasks and for
what time."

:class:`QoSArbitrator` is the façade a deployment talks to: it owns the
:class:`~repro.core.schedule.Schedule`, a greedy (rigid or malleable)
scheduler and the admission accounting (Section 3.1: "upon job arrival,
the QoS arbitrator first performs admission control"), and exposes job
submission plus running metrics.  Admission is all-or-nothing at arrival
under the static negotiation model: a job none of whose configurations
passes the objective's filter is rejected and never retried, and an admitted
job's placement is committed at once and never revoked.  QoS *agents*
(:mod:`repro.qos.agent`) negotiate with it on behalf of applications.
"""

from __future__ import annotations

import random
import time
from typing import Sequence

from repro.core import kernels
from repro.core.admission import NO_FIT, AdmissionDecision
from repro.core.kernels import batch as kernel_batch
from repro.core.greedy import GreedyScheduler
from repro.core.malleable import MalleableScheduler, MalleableStrategy
from repro.core.policies import ArbitrationObjective, TieBreakPolicy
from repro.core.profile import PROFILE_BACKENDS
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.model.job import Job
from repro.model.quality import chain_quality

__all__ = ["ArbitrationObjective", "QoSArbitrator"]


class QoSArbitrator:
    """System-wide resource manager for predictable tunable jobs.

    Parameters
    ----------
    capacity:
        Number of homogeneous processors managed.
    malleable:
        Select the Section 5.4 malleable placement model instead of the
        rigid Section 5.3 model.
    objective:
        Path-choice objective (see
        :class:`~repro.core.policies.ArbitrationObjective`), handed to the
        scheduler, which applies it to admissions and re-plans alike.
    policy:
        Tie-break policy inside the earliest-finish criterion.
    strategy:
        Malleable-model width rule, ignored when ``malleable=False``.
    keep_placements:
        Retain every committed placement (memory grows with admitted jobs).
    compact:
        Compact the availability profile to each job's release before
        deciding it — sound because no task may start before the newest
        arrival, and what keeps the profile proportional to *live*
        allocations.  Requires non-decreasing releases; a decreasing one
        raises from the profile layer.
    backend:
        Who decides a ``submit``, one of
        :data:`~repro.core.profile.PROFILE_BACKENDS`: ``"auto"`` (default)
        — the C admission loop whenever it takes the configuration, the
        Python reference otherwise; ``"scalar"`` — always the reference,
        the differential oracle.  Decisions are bit-identical
        (``docs/perf.md``, "Who decides, who scans").
    seed:
        Seed for the RANDOM tie-break policy only, which requires one.
    """

    def __init__(
        self,
        capacity: int,
        *,
        malleable: bool = False,
        objective: ArbitrationObjective = ArbitrationObjective.EARLIEST_FINISH,
        policy: TieBreakPolicy = TieBreakPolicy.PAPER,
        strategy: MalleableStrategy = MalleableStrategy.WIDEST_FIRST_FEASIBLE,
        keep_placements: bool = True,
        compact: bool = True,
        backend: str = "auto",
        seed: int | None = None,
    ) -> None:
        if backend not in PROFILE_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {PROFILE_BACKENDS}, got {backend!r}"
            )
        self.schedule = Schedule(capacity, keep_placements=keep_placements)
        rng = random.Random(seed) if seed is not None else None
        if malleable:
            self.scheduler: GreedyScheduler = MalleableScheduler(
                self.schedule,
                policy=policy,
                strategy=strategy,
                rng=rng,
                objective=objective,
            )
        else:
            self.scheduler = GreedyScheduler(
                self.schedule, policy=policy, rng=rng, objective=objective
            )
        self.backend = backend
        self.compact = compact
        #: Jobs admitted and rejected so far, and admissions per
        #: configuration index.
        self.admitted = 0
        self.rejected = 0
        self.decisions_by_chain: dict[int, int] = {}
        self._quality_sum = 0.0
        self._quality_possible = 0.0

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Number of processors managed."""
        return self.schedule.capacity

    @property
    def objective(self) -> ArbitrationObjective:
        """The path-choice objective; the scheduler's, which applies it."""
        return self.scheduler.objective

    @property
    def malleable(self) -> bool:
        """Whether the malleable placement model is active."""
        return isinstance(self.scheduler, MalleableScheduler)

    @property
    def achieved_quality(self) -> float:
        """Sum of path qualities over admitted jobs."""
        return self._quality_sum

    @property
    def quality_ratio(self) -> float:
        """Achieved quality over the best possible quality of *offered* jobs."""
        if self._quality_possible == 0:
            return 0.0
        return self._quality_sum / self._quality_possible

    def utilization(self, horizon: float | None = None) -> float:
        """Committed utilization; see :meth:`repro.core.schedule.Schedule.utilization`."""
        return self.schedule.utilization(horizon)

    def chain_usage(self) -> dict[int, int]:
        """How many admitted jobs used each configuration index."""
        return dict(self.decisions_by_chain)

    # ------------------------------------------------------------------

    def perf_snapshot(self) -> dict[str, float | int | str]:
        """Hot-path instrumentation summary (see :mod:`repro.perf`).

        Includes per-submit wall-clock decision latency (``decision_*``),
        scheduler counters (probes, quick/area rejects, commits,
        rollbacks) and profile operation stats (``profile_*``).
        The candidate-search counters are always present (0 when the event
        never fired) so dashboards and tests can read them unconditionally.
        Kernel-layer selection telemetry rides along: ``kernel_backend``
        (``"compiled"`` or ``"python"`` — whether the C admission loop is
        loaded or the reference decides everything) and
        ``kernel_fallbacks`` (process-wide count of compiled→python
        fallback events).
        """
        out = self.schedule.perf_snapshot()
        for name in (
            "chains_probed",
            "chains_quick_rejected",
            "chains_area_rejected",
            "batch_jobs",
            "batch_fallbacks",
        ):
            out.setdefault(name, 0)
        out["kernel_backend"] = kernels.kernel_backend()
        out["kernel_fallbacks"] = kernels.stats.fallbacks
        return out

    # ------------------------------------------------------------------

    def adopt_schedule(self, schedule: Schedule) -> None:
        """Swap in a replacement :class:`Schedule` (capacity change).

        The resilience driver rebuilds the committed schedule on a new
        machine size at each capacity event; this rebinds the arbitrator
        and its scheduler to that schedule so subsequent admissions probe
        the post-change profile.  Admission/quality counters are *not*
        reset — they describe the whole run, not one capacity epoch.
        """
        self.schedule = schedule
        self.scheduler.schedule = schedule
        # The C loop's kernel context is the *profile's* (built on its
        # first call), so the swap needs nothing here: the old context
        # goes with the old profile.

    def _c_loop_eligible(self) -> bool:
        """Whether the C admission loop implements this configuration
        (the arbitrator's half of "What the C loop does not take" in
        :mod:`repro.core.kernels.batch`)."""
        scheduler = self.scheduler
        return (
            scheduler.objective is ArbitrationObjective.EARLIEST_FINISH
            and type(scheduler) is GreedyScheduler
            and scheduler.policy is not TieBreakPolicy.RANDOM
        )

    def _offer(self, job: Job) -> AdmissionDecision:
        """Decide ``job`` in Python, then account for it: compact →
        ``scheduler.schedule_job`` → count.  Every accumulator moves after
        the commit, so a decision that raises leaves them where they were."""
        if self.compact:
            self.schedule.compact(job.release)
        chosen = self.scheduler.schedule_job(job)
        self._quality_possible += job.best_quality()
        if chosen is None:
            self.rejected += 1
            reason = NO_FIT
            if self.objective is ArbitrationObjective.CONSERVATIVE:
                reason = "conservative: not every configuration schedulable"
            return AdmissionDecision(job.job_id, False, None, reason=reason)
        self.admitted += 1
        by_chain = self.decisions_by_chain
        by_chain[chosen.chain_index] = by_chain.get(chosen.chain_index, 0) + 1
        self._quality_sum += chain_quality(chosen.chain)
        return AdmissionDecision(job.job_id, True, chosen)

    def _decide_one(self, job: Job) -> AdmissionDecision:
        """One decision, one ``decision`` timer sample: a batch of one
        through the C loop whenever :meth:`admit_batch` would take it,
        except on ``backend="scalar"`` — the reference path,
        :meth:`_offer`."""
        t0 = time.perf_counter()
        try:
            if self._c_loop_eligible() and self.backend != "scalar":
                decisions = kernel_batch.try_admit_batch_compiled(self, (job,))
                if decisions is not None:
                    return decisions[0]  # accounted by the write-back
            return self._offer(job)
        finally:
            self.schedule.perf.note_decision(time.perf_counter() - t0)

    def submit(self, job: Job) -> AdmissionDecision:
        """Admission-control one job and commit its chosen configuration.

        Jobs must be submitted in non-decreasing release order when profile
        compaction is enabled (the default), matching an arrival process.
        Each call records one wall-clock ``decision`` latency sample on
        :attr:`Schedule.perf <repro.core.schedule.Schedule.perf>`.
        """
        return self._decide_one(job)

    def admit_batch(self, jobs: "Sequence[Job]") -> list[AdmissionDecision]:
        """Admission-control a vector of jobs in arrival order.

        **Equivalence contract**: the decisions, committed schedule,
        admission counters and quality accumulators are bit-identical to
        calling :meth:`submit` on each job in sequence — the batch API
        changes *cost*, never *outcome* (asserted per-case by the
        differential fuzzer and ``tests/core/test_admit_batch.py``).
        Jobs must be in non-decreasing release order when compaction is
        enabled, exactly as for serial submission.

        With the compiled kernel loaded and a supported configuration
        (everything not listed under "What the C loop does not take" in
        :mod:`repro.core.kernels.batch`), the entire admission loop for
        the batch — compaction, filtering, probing, tie-breaking,
        committing — runs in **one C call** over flat arrays
        (:func:`repro.core.kernels.batch.try_admit_batch_compiled`);
        otherwise the batch *is* the serial loop.

        Latency lands in one ``decision_batch`` timer sample (not one
        ``decision`` sample per job); ``batch_jobs`` counts jobs routed
        through here and ``batch_fallbacks`` the batches the compiled
        path declined.
        """
        if not jobs:
            return []
        perf = self.schedule.perf
        perf.batch_jobs += len(jobs)
        t0 = time.perf_counter()
        try:
            if self._c_loop_eligible():
                decisions = kernel_batch.try_admit_batch_compiled(self, jobs)
                if decisions is not None:
                    return decisions
            perf.batch_fallbacks += 1
            return [self._offer(job) for job in jobs]
        finally:
            perf.observe("decision_batch", time.perf_counter() - t0)

    def resubmit(self, job: Job) -> AdmissionDecision:
        """Re-offer a job already counted rejected by :meth:`submit`.

        The shrink-to-admit path of the mid-execution resize engine: after
        a rejection, a running malleable job may be narrowed to free
        capacity and the arrival re-offered against the reshaped profile.
        The job was fully counted (offered/rejected/quality-possible) by
        its original :meth:`submit`, so this nets the provisional rejection
        out instead of counting the job twice: on success the earlier
        rejection is removed and the admission recorded as usual; on
        failure all counters are left exactly as :meth:`submit` set them.
        """
        possible = self._quality_possible
        decision = self._decide_one(job)
        self._quality_possible = possible  # counted by the original submit
        # The provisional rejection on success, the second count of it on
        # failure: one too many either way.
        self.rejected -= 1
        return decision
