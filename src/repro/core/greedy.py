"""The greedy heuristic for rigid (non-malleable) tunable jobs (Section 5.2).

"The heuristic greedily allocates resources to jobs using a first fit
policy.  For a tunable job with multiple schedulable configurations, the
heuristic finds among all of them the one that most efficiently uses the
system. ... A job is schedulable if all the tasks on its task chain (any one
of the task chains for a tunable job) can be scheduled into available holes
while meeting the task deadlines."

Per-task first fit (earliest feasible start) composed along a chain is
*dominant* for chains: starting a task at its earliest feasible time can
only enlarge the feasible start set of every successor, so the per-chain
placement returned here achieves that chain's minimum possible finish time
under the committed profile — which is why "under the assumptions of our
task model, the heuristic finds the job configuration which achieves the
earliest finish time."

Decision
--------
:meth:`GreedyScheduler.schedule_job` is the one Python decision, for an
admission and for a re-plan alike: every configuration is probed
(:meth:`~GreedyScheduler.candidates`), the
:class:`~repro.core.policies.ArbitrationObjective` keeps the eligible
ones (:meth:`~GreedyScheduler._admissible`),
:func:`~repro.core.policies.select_candidate` tie-breaks among them and
the winner is committed.  Two necessary-condition filters stand
in front of the first-fit walk and only ever turn a doomed walk into a
cheap rejection: :meth:`GreedyScheduler._quick_reject` (a task wider than
the machine, or a chain that misses a deadline even on an idle one) and
:meth:`GreedyScheduler._area_reject` (the deadline window holds less free
processor-time than the chain needs).
"""

from __future__ import annotations

import math
import random

from repro.core.first_fit import earliest_fit
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import ArbitrationObjective, TieBreakPolicy, select_candidate
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.quality import chain_quality

__all__ = ["GreedyScheduler"]


class GreedyScheduler:
    """First-fit greedy scheduler over a shared :class:`Schedule`.

    Parameters
    ----------
    schedule:
        The committed schedule this scheduler reads and (on
        :meth:`schedule_job`) writes.
    policy:
        Tie-break rule among equally-early-finishing configurations.
    rng:
        Only used by :attr:`TieBreakPolicy.RANDOM`, which requires it.
    objective:
        Which schedulable configurations are eligible (see
        :class:`~repro.core.policies.ArbitrationObjective`).
    """

    def __init__(
        self,
        schedule: Schedule,
        policy: TieBreakPolicy = TieBreakPolicy.PAPER,
        rng: random.Random | None = None,
        objective: ArbitrationObjective = ArbitrationObjective.EARLIEST_FINISH,
    ) -> None:
        if policy is TieBreakPolicy.RANDOM and rng is None:
            raise ConfigurationError("TieBreakPolicy.RANDOM needs a seed or rng")
        self.schedule = schedule
        self.policy = policy
        self.rng = rng
        self.objective = objective

    # ------------------------------------------------------------------

    def _quick_reject(self, chain: TaskChain) -> bool:
        """Cheap necessary-condition check before running first fit.

        Overridden by the malleable scheduler, whose reshaping invalidates
        the rigid width/duration bounds used here.
        """
        return chain.is_trivially_infeasible(self.schedule.capacity)

    def _area_reject(self, chain: TaskChain, release: float) -> bool:
        """O(log S) free-area necessary condition against the live profile.

        A chain's tasks occupy pairwise-disjoint time intervals inside
        ``[release, release + final_deadline]`` (every task finishes before
        the final task's deadline), so the window's free processor-time must
        cover the chain's total area for *any* placement — rigid or
        malleable (reshaping conserves area).  Runs off the profile's
        cached prefix sums, so it turns doomed first-fit walks away for the
        cost of two bisections.  The window's free area is a sum of
        differences, which can round just below a chain's area on a fit
        that is exactly tight (release 0.7, one task of duration and
        deadline 0.1: ``0.7 + 0.1 - 0.7`` is ``0.09999999999999998``), so
        the test keeps a small absolute slack: a filter may let a doomed
        chain through to first fit, never reject a feasible one.
        """
        profile = self.schedule.profile
        t0 = max(release, profile.origin)
        t1 = release + chain.final_deadline
        if math.isinf(t1):
            return False
        if t1 <= t0:
            return True
        return profile.free_area(t0, t1) < chain.total_area - 1e-6

    def place_chain(
        self,
        chain: TaskChain,
        release: float,
        job_id: int = -1,
        chain_index: int = 0,
    ) -> ChainPlacement | None:
        """Tentatively place every task of ``chain`` by first fit.

        Does **not** modify the schedule.  Returns ``None`` as soon as any
        task cannot meet its deadline.
        """
        profile = self.schedule.profile
        earliest = max(release, profile.origin)
        placements: list[Placement] = []
        for task in chain.tasks:
            start = earliest_fit(
                profile,
                task.processors,
                task.duration,
                earliest,
                release + task.deadline,
            )
            if start is None:
                return None
            placements.append(Placement.rigid(task, start))
            earliest = start + task.duration
        return ChainPlacement(
            job_id=job_id,
            chain_index=chain_index,
            chain=chain,
            placements=tuple(placements),
            release=release,
        )

    # ------------------------------------------------------------------

    def candidates(self, job: Job) -> list[ChainPlacement]:
        """Tentative placements for every schedulable configuration of
        ``job``, in configuration order: each one probed, behind the two
        filters."""
        perf = self.schedule.perf
        release = job.release
        out: list[ChainPlacement] = []
        for idx, chain in enumerate(job.chains):
            perf.chains_probed += 1
            if self._quick_reject(chain):
                perf.chains_quick_rejected += 1
                continue
            if self._area_reject(chain, release):
                perf.chains_area_rejected += 1
                continue
            cp = self.place_chain(chain, release, job.job_id, idx)
            if cp is not None:
                out.append(cp)
        return out

    def _admissible(
        self, job: Job, cands: list[ChainPlacement]
    ) -> list[ChainPlacement]:
        """The objective's filter: which of ``job``'s schedulable
        configurations go to the tie-break.  EARLIEST_FINISH keeps all of
        them, MAX_QUALITY those of the highest path quality, CONSERVATIVE
        all of them only when every configuration is schedulable."""
        objective = self.objective
        if objective is ArbitrationObjective.MAX_QUALITY and cands:
            best_q = max(chain_quality(c.chain) for c in cands)
            return [c for c in cands if chain_quality(c.chain) == best_q]
        if objective is ArbitrationObjective.CONSERVATIVE:
            return cands if len(cands) == len(job.chains) else []
        return cands

    def schedule_job(self, job: Job) -> ChainPlacement | None:
        """Decide ``job`` and *commit* the winner; ``None`` if rejected:
        ``candidates`` → the objective's filter → ``select_candidate`` →
        ``commit``."""
        top = self._admissible(job, self.candidates(job))
        if not top:
            return None
        chosen = select_candidate(top, self.policy, self.rng)
        self.schedule.commit(chosen)
        return chosen
