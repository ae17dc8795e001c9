"""Cross-validation: the greedy heuristic against brute-force references.

The paper states that "under the assumptions of our task model, the
heuristic finds the job configuration which achieves the earliest finish
time."  These tests verify that claim mechanically on randomized small
instances: an exhaustive reference scheduler enumerates *all* candidate
start-time combinations (profile breakpoints) for each chain and computes
the true minimum finish; the greedy must match it, and its chosen
configuration must achieve the minimum across chains.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.greedy import GreedyScheduler
from repro.core.malleable import MalleableScheduler
from repro.core.profile import AvailabilityProfile
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.job import Job
from tests.conftest import loaded_profiles, task_chains


def brute_force_chain_finish(
    profile: AvailabilityProfile, chain: TaskChain, release: float
) -> float | None:
    """True minimum finish time of ``chain`` by exhaustive start search.

    Candidate starts for each task: the earliest-allowed instant plus every
    profile breakpoint after it (optimal schedules only need starts at
    breakpoints or at predecessor finishes, both covered recursively).
    """
    breakpoints = [t for t in profile.breakpoints]

    def best_from(task_idx: int, earliest: float) -> float | None:
        if task_idx == len(chain):
            return earliest  # finish time of the last task
        task = chain[task_idx]
        abs_deadline = release + task.deadline
        candidates = sorted({earliest, *(b for b in breakpoints if b > earliest)})
        best: float | None = None
        for start in candidates:
            finish = start + task.duration
            if finish > abs_deadline + 1e-9:
                continue
            if profile.min_available(start, finish) < task.processors:
                continue
            result = best_from(task_idx + 1, finish)
            if result is not None and (best is None or result < best):
                best = result
        return best

    return best_from(0, max(release, profile.origin))


class TestChainOptimality:
    @given(loaded_profiles(max_capacity=4), task_chains(max_len=2, max_procs=4))
    def test_greedy_matches_brute_force(self, profile, chain):
        schedule = Schedule(profile.capacity)
        schedule.profile._times = list(profile._times)  # noqa: SLF001
        schedule.profile._avail = list(profile._avail)  # noqa: SLF001
        greedy = GreedyScheduler(schedule)
        cp = greedy.place_chain(chain, release=1.0)
        reference = brute_force_chain_finish(profile, chain, release=1.0)
        if cp is None:
            assert reference is None
        else:
            assert reference is not None
            assert math.isclose(cp.finish, reference, abs_tol=1e-9)

    @given(
        loaded_profiles(max_capacity=4),
        st.lists(task_chains(max_len=2, max_procs=4), min_size=2, max_size=3),
    )
    def test_job_choice_achieves_min_finish(self, profile, chains):
        """The chosen configuration's finish equals the min over all chains."""
        schedule = Schedule(profile.capacity)
        schedule.profile._times = list(profile._times)  # noqa: SLF001
        schedule.profile._avail = list(profile._avail)  # noqa: SLF001
        greedy = GreedyScheduler(schedule)
        job = Job.tunable_of(chains, release=0.5)
        chosen = greedy.schedule_job(job)
        per_chain = [
            brute_force_chain_finish(profile, c, release=0.5) for c in chains
        ]
        feasible = [f for f in per_chain if f is not None]
        if chosen is None:
            assert not feasible
        else:
            assert feasible
            assert math.isclose(chosen.finish, min(feasible), abs_tol=1e-9)


class TestMalleableSoundness:
    @given(task_chains(max_len=3, max_procs=8), st.integers(1, 8))
    def test_quick_reject_never_rejects_feasible(self, chain, capacity):
        """_quick_reject is a sound necessary condition: anything it rejects
        is truly unschedulable on an empty machine."""
        schedule = Schedule(capacity)
        scheduler = MalleableScheduler(schedule)
        if scheduler._quick_reject(chain):  # noqa: SLF001
            assert scheduler.place_chain(chain, release=0.0) is None

    @given(task_chains(max_len=3, max_procs=8), st.integers(1, 8))
    def test_rigid_quick_reject_sound(self, chain, capacity):
        schedule = Schedule(capacity)
        scheduler = GreedyScheduler(schedule)
        if scheduler._quick_reject(chain):  # noqa: SLF001
            assert scheduler.place_chain(chain, release=0.0) is None
