"""Baseline and ablation schedulers.

These are *not* in the paper's evaluation but contextualize the greedy
heuristic, as called for by the related-work discussion (Section 6):

* :class:`BestFitScheduler` — replaces the first-fit (earliest start) rule
  with best-fit over maximal holes (tightest height surplus, then earliest
  start).  The ablation bench measures what first-fit costs/buys.
* :class:`ConservativeArbitrator` — a real-time-style admission control
  that does not trust the negotiation step: it admits a tunable job only if
  *every* configuration is schedulable (so any path the application might
  take is safe).  This models the "overly conservative" behaviour the
  introduction attributes to classical real-time resource management and
  quantifies what negotiated tunability saves.
"""

from __future__ import annotations

from repro.core.admission import AdmissionDecision
from repro.core.arbitrator import QoSArbitrator
from repro.core.first_fit import earliest_fit
from repro.core.greedy import GreedyScheduler
from repro.core.holes import maximal_holes
from repro.core.placement import ChainPlacement, Placement
from repro.core.resources import TIME_EPS
from repro.model.chain import TaskChain
from repro.model.job import Job

__all__ = ["BestFitScheduler", "ConservativeArbitrator"]


class BestFitScheduler(GreedyScheduler):
    """Greedy scheduler using best-fit hole selection per task.

    For each task, enumerate the maximal holes that admit it by its
    deadline and choose the hole with the smallest height surplus
    ``m - processors`` (ties: earliest feasible start).  The task starts as
    early as possible inside the chosen hole.

    This runs the hole enumeration per task and is therefore noticeably
    slower than first fit; it exists for the ablation experiments and as a
    second implementation against which the property tests cross-check
    feasibility.
    """

    # Best fit picks the *tightest* hole, so a harder task failing says
    # nothing monotone about an easier one, and the chosen hole depends on
    # the deadline — the greedy prunes that rely on first-fit properties
    # are not exact here and stay off.
    SUPPORTS_DOMINANCE = False
    SUPPORTS_FINISH_CAP = False

    def place_chain(
        self,
        chain: TaskChain,
        release: float,
        job_id: int = -1,
        chain_index: int = 0,
    ) -> ChainPlacement | None:
        profile = self.schedule.profile
        earliest = max(release, profile.origin)
        placements: list[Placement] = []
        for task in chain.tasks:
            deadline = release + task.deadline
            best_start: float | None = None
            best_surplus: int | None = None
            for hole in maximal_holes(profile):
                if hole.m < task.processors:
                    continue
                start = max(hole.t_b, earliest)
                finish = start + task.duration
                if finish > hole.t_e + TIME_EPS or finish > deadline + TIME_EPS:
                    continue
                surplus = hole.m - task.processors
                if (
                    best_surplus is None
                    or surplus < best_surplus
                    or (surplus == best_surplus and start < best_start - TIME_EPS)
                ):
                    best_surplus = surplus
                    best_start = start
            if best_start is None:
                return None
            placements.append(Placement.rigid(task, best_start))
            earliest = best_start + task.duration
        return ChainPlacement(
            job_id=job_id,
            chain_index=chain_index,
            chain=chain,
            placements=tuple(placements),
            release=release,
        )


class ConservativeArbitrator(QoSArbitrator):
    """Admission requires *all* configurations schedulable (see module docs).

    Once admitted, the job still gets the paper's best configuration — the
    penalty is purely on admission, isolating the value of the negotiation
    step that lets the arbitrator pin the application to one path.
    """

    def submit(self, job: Job) -> AdmissionDecision:
        self._quality_possible += job.best_quality(self.quality_composition)
        if self.admission.compact:
            self.schedule.compact(job.release)
        cands = self.scheduler.candidates(job)
        if len(cands) < len(job.chains):
            self.admission.rejected += 1
            return AdmissionDecision(
                job.job_id,
                False,
                None,
                reason="conservative: not every configuration schedulable",
            )
        decision = self.admission.offer(job)
        if decision.admitted and decision.placement is not None:
            from repro.model.quality import chain_quality

            self._quality_sum += chain_quality(
                decision.placement.chain, self.quality_composition
            )
        return decision
