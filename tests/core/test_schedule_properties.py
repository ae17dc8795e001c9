"""Property tests: schedule accounting survives commit/rollback interleaving.

The schedule's incremental accounting (``committed_area``, the utilization
window extremes, the profile itself) must always agree with a from-scratch
replay of the placements that survived — whatever order commits and
rollbacks happened in.  This is the property the stale-window rollback bug
violated: a rollback of the earliest-released or latest-finishing job left
``first_release``/``last_finish`` pointing at the departed placement.

The tail primitives (``rollback_tail``, ``restore_tail``, ``adopt_carried``)
share one clip; their properties below pin that clip's exact edge (a
remainder one ``TIME_STEP`` long is still a remainder) and the
all-or-nothing reservation behind it, comparing everything with ``==``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.first_fit import earliest_fit
from repro.core.placement import ChainPlacement, Placement
from repro.core.profile import AvailabilityProfile
from repro.core.resources import TIME_LIMIT, TIME_STEP, ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.errors import CapacityExceededError
from repro.model.chain import TaskChain
from repro.model.task import TaskSpec

CAPACITY = 6
_LOOSE_DEADLINE = 1e6


def _place(schedule: Schedule, job_id: int, procs: int, duration: float,
           release: float) -> ChainPlacement | None:
    """Earliest-fit a one-task chain onto the schedule's live profile."""
    start = earliest_fit(schedule.profile, procs, duration, release)
    if start is None:
        return None
    chain = TaskChain(
        (TaskSpec("t", ProcessorTimeRequest(procs, duration),
                  deadline=_LOOSE_DEADLINE),)
    )
    return ChainPlacement(
        job_id=job_id,
        chain_index=0,
        chain=chain,
        placements=(Placement.rigid(chain[0], start),),
        release=release,
    )


@st.composite
def interleavings(draw, max_ops: int = 16):
    """A list of ('commit', procs, duration, release) / ('rollback', k) ops."""
    ops = []
    n = draw(st.integers(min_value=1, max_value=max_ops))
    live = 0
    for _ in range(n):
        if live and draw(st.booleans()):
            ops.append(("rollback", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            ops.append(
                (
                    "commit",
                    draw(st.integers(1, CAPACITY)),
                    draw(st.integers(1, 16)) / 2,
                    draw(st.integers(0, 64)) / 2,
                )
            )
            live += 1
    return ops


@given(interleavings())
def test_interleaved_commit_rollback_matches_replay(ops):
    schedule = Schedule(CAPACITY)
    live: list[ChainPlacement] = []
    for job_id, op in enumerate(ops):
        if op[0] == "commit":
            _, procs, duration, release = op
            cp = _place(schedule, job_id, procs, duration, release)
            assert cp is not None  # infinite horizon: always placeable
            schedule.commit(cp)
            live.append(cp)
        else:
            _, k = op
            schedule.rollback(live.pop(k))

    # Replay only the survivors, in their original commit order, onto a
    # fresh schedule; every aggregate must agree with the live one.
    replay = Schedule(CAPACITY)
    for cp in live:
        replay.commit(cp)

    assert schedule.committed_jobs == replay.committed_jobs == len(live)
    assert schedule.committed_area == pytest.approx(replay.committed_area)
    assert schedule.first_release == replay.first_release
    assert schedule.last_finish == replay.last_finish
    if live:
        assert schedule.utilization() == pytest.approx(replay.utilization())
        assert schedule.first_release == min(cp.release for cp in live)
        assert schedule.last_finish == max(cp.finish for cp in live)
    else:
        assert schedule.utilization() == 0.0
        assert schedule.first_release == math.inf
        assert schedule.last_finish == -math.inf
    assert schedule.profile == replay.profile
    schedule.check_consistency()


@given(interleavings())
def test_interleaving_keeps_perf_counter_balance(ops):
    """commits - rollbacks == live placements, and the profile drains to idle."""
    schedule = Schedule(CAPACITY)
    live: list[ChainPlacement] = []
    for job_id, op in enumerate(ops):
        if op[0] == "commit":
            cp = _place(schedule, job_id, op[1], op[2], op[3])
            schedule.commit(cp)
            live.append(cp)
        else:
            schedule.rollback(live.pop(op[1]))
    snap = schedule.perf_snapshot()
    assert snap.get("commits", 0) - snap.get("rollbacks", 0) == len(live)
    # Rolling back the rest must return the machine to a fully idle profile.
    for cp in list(live):
        schedule.rollback(cp)
    assert schedule.profile == Schedule(CAPACITY).profile
    assert schedule.committed_area == pytest.approx(0.0)


# ----------------------------------------------------------------------
# The tail primitives: rollback_tail / restore_tail / adopt_carried
# ----------------------------------------------------------------------

#: One step of the time range, exact on the half-unit grid, so every
#: clipped area below is exact and accounting can be compared with ``==``.
_NUDGE = TIME_STEP

_tasks = st.lists(
    st.tuples(
        st.integers(1, CAPACITY),  # processors
        st.integers(1, 8),  # duration, half-units
        st.integers(0, 2),  # gap before the task, half-units
    ),
    min_size=1,
    max_size=4,
)
#: One-task placements: (processors, duration, release), half-units.
_others = st.tuples(
    st.integers(1, CAPACITY), st.integers(1, 8), st.integers(0, 16)
)


def _carry(start_tick: int, tasks, cut_tick: int, nudge: float):
    """A chain laid out from ``start_tick`` and a cut at ``cut_tick + nudge``.

    Returns ``(placement, cut_tick, cut)``; ticks are half-units.
    """
    specs = tuple(
        TaskSpec(f"t{i}", ProcessorTimeRequest(procs, dur / 2),
                 deadline=_LOOSE_DEADLINE)
        for i, (procs, dur, _gap) in enumerate(tasks)
    )
    placements = []
    tick = start_tick
    for spec, (_procs, dur, gap) in zip(specs, tasks):
        tick += gap
        placements.append(Placement.rigid(spec, tick / 2))
        tick += dur
    cp = ChainPlacement(
        job_id=0,
        chain_index=0,
        chain=TaskChain(specs),
        placements=tuple(placements),
        release=0.0,
    )
    return cp, cut_tick, cut_tick / 2 + nudge


@st.composite
def carries(draw):
    """A multi-task placement and a cut strictly after its start.

    The cut is a grid tick, or one nudged by one step either way, so task
    ends a single step from the cut come up often.
    """
    start_tick = draw(st.integers(0, 8))
    tasks = draw(_tasks)
    first = start_tick + tasks[0][2]
    last = start_tick + sum(dur + gap for _procs, dur, gap in tasks)
    cut_tick = draw(st.integers(first + 1, last))
    nudge = draw(st.sampled_from((-_NUDGE, 0.0, _NUDGE)))
    return _carry(start_tick, tasks, cut_tick, nudge)


def _state(schedule: Schedule):
    """Everything the tail primitives touch (placements in job order)."""
    return (
        tuple(schedule.profile.segments()),
        sorted(schedule.placements, key=lambda cp: cp.job_id),
        schedule.committed_area,
        schedule.committed_jobs,
        schedule.first_release,
        schedule.last_finish,
    )


@given(carries(), st.lists(_others, max_size=6))
def test_restore_tail_undoes_rollback_tail(carry, others):
    cp, _tick, cut = carry
    schedule = Schedule(CAPACITY)
    schedule.commit(cp)
    for job_id, (procs, dur, release) in enumerate(others, start=1):
        schedule.commit(_place(schedule, job_id, procs, dur / 2, release / 2))
    before = _state(schedule)
    schedule.rollback_tail(cp, cut)
    schedule.restore_tail(cp, cut)
    after = _state(schedule)
    assert after == before
    schedule.check_consistency()


@given(carries())
def test_adopt_carried_reserves_exactly_the_clipped_remainder(carry):
    cp, cut_tick, cut = carry
    schedule = Schedule(CAPACITY, origin=cut)
    schedule.adopt_carried(cp, cut)
    # A task ending at or before the cut is history; one ending after it,
    # even by a single step, keeps that remainder reserved.
    expected = AvailabilityProfile(CAPACITY, origin=cut)
    area = 0.0
    for pl in cp.placements:
        if pl.end > cut:
            start = max(pl.start, cut)
            expected.reserve(start, pl.end, pl.processors)
            area += (pl.end - start) * pl.processors
    assert schedule.profile == expected
    assert schedule.committed_area == area
    assert schedule.placements == (cp,)
    assert schedule.last_finish == cp.finish


@given(carries(), st.lists(_others, min_size=1, max_size=4))
# The first clipped task fits and the second does not: a partial
# reservation exists when the error is raised.
@example(
    carry=_carry(0, ((2, 4, 0), (CAPACITY, 4, 0)), cut_tick=1, nudge=0.0),
    others=[(1, 2, 6)],
)
# A clipped task ends at 5.0, one step after the breakpoint at
# 5 - TIME_STEP where a job placed at the cut ends; when a later task does
# not fit, releasing what was reserved must leave both breakpoints where
# they were.
@example(
    carry=_carry(
        0, ((1, 1, 0), (1, 1, 0), (1, 6, 2), (1, 1, 0)),
        cut_tick=2, nudge=-_NUDGE,
    ),
    others=[(5, 8, 0), (2, 1, 0), (4, 1, 0)],
)
def test_failed_adopt_carried_changes_nothing(carry, others):
    cp, _tick, cut = carry
    schedule = Schedule(CAPACITY, origin=cut)
    for job_id, (procs, dur, release) in enumerate(others, start=1):
        schedule.commit(
            _place(schedule, job_id, procs, dur / 2, max(release / 2, cut))
        )
    before = _state(schedule)
    try:
        schedule.adopt_carried(cp, cut)
    except CapacityExceededError:
        assert _state(schedule) == before
    else:
        assert schedule.placements[-1] is cp
    schedule.check_consistency()


#: Interval edges in steps of the time range: near zero, and near the range
#: limit, where a step is the gap between adjacent binary64 values.
_EDGE_STEPS = st.one_of(
    st.integers(0, 64),
    st.integers(int(TIME_LIMIT / TIME_STEP) - 64, int(TIME_LIMIT / TIME_STEP) - 1),
)


@given(
    st.lists(
        st.tuples(_EDGE_STEPS, st.integers(1, 16), st.integers(1, CAPACITY)),
        min_size=1,
        max_size=8,
    )
)
def test_reserve_then_release_leaves_the_profile_unchanged(intervals):
    """Releasing reserved intervals, last first, gives back each profile
    the reservations passed through, breakpoint for breakpoint."""
    profile = AvailabilityProfile(CAPACITY)
    reserved = []
    for start_step, length, procs in intervals:
        t0 = start_step * TIME_STEP
        t1 = (start_step + length) * TIME_STEP
        if profile.min_available(t0, t1) >= procs:
            before = profile.copy()
            profile.reserve(t0, t1, procs)
            reserved.append((t0, t1, procs, before))
    for t0, t1, procs, before in reversed(reserved):
        profile.release(t0, t1, procs)
        assert profile == before
    assert profile == AvailabilityProfile(CAPACITY)
