"""Unit tests for configuration-choice policies (Section 5.2 tie-breaks)."""

import random

import pytest

from repro.core.greedy import GreedyScheduler
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import TieBreakPolicy, select_candidate
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec


def cp_of(procs_durs, job_id=1, chain_index=0, release=0.0, start=0.0):
    """Back-to-back placements of the given (procs, dur) tasks."""
    tasks = tuple(
        TaskSpec(f"t{i}", ProcessorTimeRequest(p, d), deadline=1000.0)
        for i, (p, d) in enumerate(procs_durs)
    )
    chain = TaskChain(tasks)
    placements = []
    t = start
    for spec in tasks:
        placements.append(Placement.rigid(spec, t))
        t += spec.duration
    return ChainPlacement(
        job_id=job_id,
        chain_index=chain_index,
        chain=chain,
        placements=tuple(placements),
        release=release,
    )


class TestWindowUtilization:
    """PAPER's first criterion, utilization over ``[release, finish]``.

    Tied candidates share that window, so the rule reduces to their own
    areas; the committed work in the window is common to all of them.
    """

    def test_lone_candidate_on_empty_machine(self):
        cand = cp_of([(2, 5.0)])
        assert select_candidate([cand], TieBreakPolicy.PAPER) is cand

    def test_counts_existing_commitments(self):
        # The committed 2 x 5 adds the same busy area to both windows
        # [0, 5): the larger own area still wins, whichever comes first.
        narrow, wide = (cp_of([(w, 5.0)]).chain for w in (2, 4))
        for chains in ((narrow, wide), (wide, narrow)):
            s = Schedule(8)  # the decision commits: one schedule per order
            s.commit(cp_of([(2, 5.0)], job_id=0))
            job = Job(chains=chains, release=0.0)
            chosen = GreedyScheduler(s).schedule_job(job)
            assert chosen.chain is wide and chosen.finish == 5.0

    def test_degenerate_window(self):
        # Released at 5 on a profile whose origin is 0: the window is
        # [5, 6) either way, and the larger area fills more of it.
        small = cp_of([(1, 1.0)], chain_index=0, release=5.0, start=5.0)
        large = cp_of([(3, 1.0)], chain_index=1, release=5.0, start=5.0)
        assert select_candidate([small, large], TieBreakPolicy.PAPER) is large


class TestSelectCandidate:
    def test_earliest_finish_wins_outright(self):
        fast = cp_of([(2, 5.0)], chain_index=0)
        slow = cp_of([(2, 9.0)], chain_index=1)
        assert select_candidate([slow, fast]) is fast

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            select_candidate([])

    def test_first_policy_keeps_order(self):
        a = cp_of([(2, 5.0)], chain_index=0)
        b = cp_of([(2, 5.0)], chain_index=1)
        assert select_candidate([a, b], TieBreakPolicy.FIRST) is a

    def test_paper_policy_prefers_higher_utilization(self):
        # Same finish, different areas: bigger area = higher window util.
        wide = cp_of([(4, 5.0)], chain_index=0)
        narrow = cp_of([(2, 5.0)], chain_index=1)
        assert select_candidate([narrow, wide], TieBreakPolicy.PAPER) is wide

    def test_paper_policy_prefix_tiebreak(self):
        # Equal finishes and equal total areas; prefix differs:
        # light-then-heavy defers resources and must win.
        light_first = cp_of([(1, 5.0), (3, 5.0)], chain_index=0)
        heavy_first = cp_of([(3, 5.0), (1, 5.0)], chain_index=1)
        chosen = select_candidate([heavy_first, light_first], TieBreakPolicy.PAPER)
        assert chosen is light_first

    def test_prefix_policy(self):
        light_first = cp_of([(1, 5.0), (3, 5.0)], chain_index=0)
        heavy_first = cp_of([(3, 5.0), (1, 5.0)], chain_index=1)
        chosen = select_candidate([heavy_first, light_first], TieBreakPolicy.PREFIX)
        assert chosen is light_first

    def test_random_policy_seeded(self):
        a = cp_of([(2, 5.0)], chain_index=0)
        b = cp_of([(2, 5.0)], chain_index=1)
        rng1 = random.Random(0)
        rng2 = random.Random(0)
        picks1 = [select_candidate([a, b], TieBreakPolicy.RANDOM, rng1) for _ in range(10)]
        picks2 = [select_candidate([a, b], TieBreakPolicy.RANDOM, rng2) for _ in range(10)]
        assert picks1 == picks2
        assert {id(p) for p in picks1} <= {id(a), id(b)}

    def test_near_tie_within_epsilon(self):
        a = cp_of([(2, 5.0)], chain_index=0)
        b = cp_of([(4, 5.0)], chain_index=1)
        # b has identical finish: tie resolved by utilization -> b.
        assert select_candidate([a, b], TieBreakPolicy.PAPER) is b
