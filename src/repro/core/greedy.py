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

Candidate pruning
-----------------
:meth:`GreedyScheduler.choose` does not blindly probe every OR-path; three
*provably decision-identical* prunes cut the number of first-fit walks per
submission (all can be disabled with ``prune=False``, the oracle mode the
regression tests compare against):

* **duplicate collapse** — two chains identical in every
  placement-relevant field (per-task shape, deadline and quality) probe
  identically and tie identically under every tie-break policy, so only
  the first is probed (synthetic sweeps hit this hard: the two fig-4
  shapes coincide at ``alpha = 1``);
* **failure propagation** — when a chain fails (area reject or first-fit
  failure), any *pointwise at-least-as-hard* chain (same length; each task
  needs at least as many processors, for at least as long, by a deadline
  at least as early) is skipped: per-task, any availability run feeding a
  harder task feeds the easier one at no later a start, so by induction
  along the chain the easier chain's per-task starts lower-bound the
  harder one's, and the easier chain's failure certifies the harder one's;
* **incumbent finish capping** — once a candidate with finish ``f`` is
  known, later chains are probed with every task deadline capped at
  ``f + TIME_EPS``.  First fit returns the same placement whenever the
  chain's finish is within the cap (the found start does not depend on
  the deadline; the deadline only accepts/rejects it), and a capped-out
  chain has finish strictly beyond any tie-break window, so the selected
  candidate is unchanged while doomed walks stop at the first run past
  the cap.

Failure propagation and finish capping rely on properties of the rigid
first-fit search (monotonicity, deadline-independent starts); schedulers
with different placement searches (malleable widest-first, best fit)
switch them off via :attr:`GreedyScheduler.SUPPORTS_DOMINANCE` /
:attr:`GreedyScheduler.SUPPORTS_FINISH_CAP`.  Duplicate collapse only
needs deterministic placement and applies everywhere.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.core.first_fit import earliest_fit
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import TieBreakPolicy, select_candidate
from repro.core.resources import TIME_EPS
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.job import Job

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
    prune:
        Enable the decision-identical candidate prunes described in the
        module docs (default True).  ``False`` is the oracle mode: every
        configuration is probed in full.
    """

    #: Whether this scheduler's placement search satisfies the monotonicity
    #: property behind failure propagation (an easier chain failing
    #: certifies that a pointwise-harder one fails).  True for rigid first
    #: fit; subclasses with other searches must opt out.
    SUPPORTS_DOMINANCE = True
    #: Whether this scheduler's per-task search returns a start that does
    #: not depend on the deadline (the deadline only accepts/rejects it),
    #: which is what makes incumbent finish capping exact.  True for rigid
    #: first fit; subclasses with other searches must opt out.
    SUPPORTS_FINISH_CAP = True

    def __init__(
        self,
        schedule: Schedule,
        policy: TieBreakPolicy = TieBreakPolicy.PAPER,
        rng: random.Random | None = None,
        prune: bool = True,
    ) -> None:
        if policy is TieBreakPolicy.RANDOM and rng is None:
            raise ConfigurationError("TieBreakPolicy.RANDOM needs a seed or rng")
        self.schedule = schedule
        self.policy = policy
        self.rng = rng
        self.prune = prune

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
        cached prefix sums, so it prunes doomed first-fit walks for the
        cost of two bisections.  The small absolute slack keeps a perfectly
        tight feasible chain from being rejected by float accumulation.
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
        finish_cap: float = math.inf,
    ) -> ChainPlacement | None:
        """Tentatively place every task of ``chain`` by first fit.

        Does **not** modify the schedule.  Returns ``None`` as soon as any
        task cannot meet its deadline.  ``finish_cap`` additionally bounds
        every task's absolute deadline (task finishes never decrease along
        a chain, so capping each task caps the chain's finish): the same
        placement comes back when its finish is within the cap, ``None``
        otherwise — see the incumbent-capping notes in the module docs.
        """
        profile = self.schedule.profile
        earliest = max(release, profile.origin)
        placements: list[Placement] = []
        for task in chain.tasks:
            deadline = release + task.deadline
            if finish_cap < deadline:
                deadline = finish_cap
            start = earliest_fit(
                profile,
                task.processors,
                task.duration,
                earliest,
                deadline,
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
    # Candidate enumeration and pruning
    # ------------------------------------------------------------------

    def _shape_key(self, chain: TaskChain) -> tuple:
        """Placement-relevant identity of a chain under this scheduler.

        Two chains with equal keys produce identical probe outcomes and
        are indistinguishable to every tie-break rule and to the quality
        objective, so the second never needs probing.  Quality is part of
        the key: collapsing equal-shape chains of *different* quality
        could flip a max-quality choice.
        """
        return tuple(
            (t.processors, t.duration, t.deadline, t.quality) for t in chain.tasks
        )

    @staticmethod
    def _harder_than_failed(chain: TaskChain, failed: list[TaskChain]) -> bool:
        """True when ``chain`` is pointwise at least as hard as a failed one.

        Pointwise hardness (see module docs) certifies failure under both
        the area reject (at least as much area into a window no larger)
        and the rigid first-fit search, including capped probes (the
        harder chain is probed under a cap no looser than the failed
        one's — the cap only tightens as enumeration proceeds).
        """
        n = len(chain.tasks)
        for other in failed:
            if len(other.tasks) != n:
                continue
            if all(
                c.processors >= o.processors
                and c.duration >= o.duration
                and c.deadline <= o.deadline
                for c, o in zip(chain.tasks, other.tasks)
            ):
                return True
        return False

    def _prober(
        self,
        job: Job,
        prune: bool,
        finish_cap: bool,
    ):
        """Stateful per-chain probe applying the enabled prunes.

        Returns a ``probe(idx) -> ChainPlacement | None`` closure that
        carries the prune state (seen shapes, failed chains, incumbent
        finish cap) across calls.  The order of calls is the probe order
        the prunes reason about, so callers that reorder (the max-quality
        arbitrator path) get exactly the prunes that are sound for their
        order.
        """
        perf = self.schedule.perf
        release = job.release
        # Duplicate collapse changes the size of the tie set RANDOM draws
        # from (two identical candidates vs one), which would shift the RNG
        # stream — off under that (ablation-only) policy.
        use_dup = prune and self.policy is not TieBreakPolicy.RANDOM
        use_dom = prune and self.SUPPORTS_DOMINANCE
        use_cap = prune and finish_cap and self.SUPPORTS_FINISH_CAP
        seen: set[tuple] = set()
        failed: list[TaskChain] = []
        state = {"cap": math.inf}

        def probe(idx: int) -> ChainPlacement | None:
            chain = job.chains[idx]
            if use_dup:
                key = self._shape_key(chain)
                if key in seen:
                    # Duplicate of an earlier probe: same outcome, and if
                    # that outcome was a placement, the earlier copy wins
                    # every deterministic tie-break (duplicates share
                    # quality, so ties resolve to the lower index).
                    perf.chains_pruned_dominated += 1
                    return None
                seen.add(key)
            if use_dom and failed and self._harder_than_failed(chain, failed):
                perf.chains_pruned_dominated += 1
                return None
            perf.chains_probed += 1
            if self._quick_reject(chain):
                perf.chains_quick_rejected += 1
                return None
            if self._area_reject(chain, release):
                perf.chains_area_rejected += 1
                if use_dom:
                    failed.append(chain)
                return None
            cap = state["cap"]
            if cap is not math.inf:
                cp = self.place_chain(chain, release, job.job_id, idx, finish_cap=cap)
            else:
                cp = self.place_chain(chain, release, job.job_id, idx)
            if cp is None:
                if use_dom:
                    failed.append(chain)
                return None
            if use_cap:
                new_cap = cp.finish + TIME_EPS
                if new_cap < cap:
                    state["cap"] = new_cap
            return cp

        return probe

    def _enumerate(
        self,
        job: Job,
        chain_indices: Sequence[int],
        prune: bool,
        finish_cap: bool,
    ) -> list[ChainPlacement]:
        """Probe the given configurations in order, applying enabled prunes.

        Returns the surviving tentative placements in probe order.  With
        ``prune=False`` this is the plain exhaustive loop (the oracle the
        decision-identity tests compare against).
        """
        probe = self._prober(job, prune, finish_cap)
        out: list[ChainPlacement] = []
        for idx in chain_indices:
            cp = probe(idx)
            if cp is not None:
                out.append(cp)
        return out

    def candidates(self, job: Job) -> list[ChainPlacement]:
        """Tentative placements for every schedulable configuration of ``job``.

        Always a *full* enumeration (no pruning): callers that inspect the
        candidate set itself — conservative admission, tests, tracing —
        rely on every schedulable configuration being present.  The pruned
        path is :meth:`choose`.
        """
        return self._enumerate(job, range(len(job.chains)), False, False)

    def choose(self, job: Job) -> ChainPlacement | None:
        """Best schedulable configuration of ``job`` (not committed)."""
        cands = self._enumerate(job, range(len(job.chains)), self.prune, True)
        if not cands:
            return None
        return select_candidate(self.schedule, cands, self.policy, self.rng)

    def schedule_job(self, job: Job) -> ChainPlacement | None:
        """Choose and *commit* the best configuration; ``None`` if rejected."""
        chosen = self.choose(job)
        if chosen is not None:
            self.schedule.commit(chosen)
        return chosen

    # ------------------------------------------------------------------

    def choose_among(
        self, job: Job, chain_indices: Sequence[int]
    ) -> ChainPlacement | None:
        """Like :meth:`choose` restricted to a subset of configurations.

        Used by baseline experiments that strip tunability from a job
        without rebuilding it.
        """
        cands = self._enumerate(job, chain_indices, self.prune, True)
        if not cands:
            return None
        return select_candidate(self.schedule, cands, self.policy, self.rng)
