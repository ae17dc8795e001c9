"""Hand-seeded buggy schedules: the auditor's own test vector.

A verifier that has never seen a broken schedule proves nothing.  Each
builder here fabricates a small schedule with exactly one planted bug —
white-box corruptions modelled on real failure modes of the scheduler stack
(the off-by-epsilon reservation, the stale rollback window that PR 3 fixed,
ledger drift, phantom/missing profile reservations) — and declares the
violation code the :class:`~repro.verify.auditor.ScheduleAuditor` must
raise.  ``tests/verify/test_auditor.py`` asserts every mutant is flagged
with its expected code (and that the uncorrupted baseline audits clean), so
any future loosening of the auditor fails loudly.

Builders write to the schedule's private ledger fields on purpose: the bugs
being modelled live *inside* ``Schedule``'s accounting, and there is no
public API for corrupting it (nor should there be).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.placement import ChainPlacement, Placement
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.resilience.reconfig import ResizeRecord

__all__ = [
    "MutantScenario",
    "MUTANT_BUILDERS",
    "audit_scenario",
    "build_all_mutants",
]


@dataclass(frozen=True, slots=True)
class MutantScenario:
    """One corrupted schedule plus the violation the auditor must raise.

    ``resizes`` optionally carries a mid-execution resize stream to run
    through :meth:`~repro.verify.auditor.ScheduleAuditor.audit_resizes`
    alongside the schedule audit; the expected code may come from either.
    """

    name: str
    expected_code: str
    schedule: Schedule
    jobs: tuple[Job, ...]
    malleable: bool = False
    description: str = ""
    resizes: tuple[ResizeRecord, ...] = ()


def _task(
    name: str,
    procs: int,
    duration: float,
    deadline: float = 100.0,
    max_concurrency: int | None = None,
) -> TaskSpec:
    return TaskSpec(
        name,
        ProcessorTimeRequest(procs, duration),
        deadline=deadline,
        max_concurrency=max_concurrency
        if max_concurrency is not None
        else procs,
    )


def _job(release: float, *tasks: TaskSpec) -> Job:
    return Job(chains=(TaskChain(tuple(tasks)),), release=release)


def _rigid_cp(job: Job, *starts: float) -> ChainPlacement:
    """Chain placement honouring each task's rigid request at ``starts``."""
    chain = job.chains[0]
    return ChainPlacement(
        job_id=job.job_id,
        chain_index=0,
        chain=chain,
        placements=tuple(
            Placement.rigid(task, start)
            for task, start in zip(chain.tasks, starts)
        ),
        release=job.release,
    )


def _raw_commit(schedule: Schedule, cp: ChainPlacement, reserve: bool = True) -> None:
    """Commit without validation — mutants must bypass the guard rails.

    Mirrors :meth:`Schedule.commit`'s ledger arithmetic exactly so the only
    inconsistency in a scenario is the one its builder plants.  ``reserve=
    False`` skips the profile reservation for placements the profile would
    (correctly) reject, e.g. over-capacity ones.
    """
    if reserve:
        for pl in cp.placements:
            schedule.profile.reserve(pl.start, pl.end, pl.processors)
    schedule._placements.append(cp)
    schedule._committed_area += cp.total_area
    schedule._committed_jobs += 1
    schedule._releases[cp.release] += 1
    schedule._finishes[cp.finish] += 1
    schedule._first_release = min(schedule._first_release, cp.release)
    schedule._last_finish = max(schedule._last_finish, cp.finish)


def _pair() -> tuple[Schedule, Job, Job]:
    """The shared clean baseline: two jobs filling a 4p machine exactly.

    job A: a0 = 2p x 4t @ [0, 4), then a1 = 2p x 3t @ [4, 7)
    job B: b0 = 2p x 5t @ [1, 6)          (release 1)

    Peak usage is exactly 4p over [1, 6); all deadlines are loose.
    """
    a = _job(0.0, _task("a0", 2, 4.0, deadline=20.0), _task("a1", 2, 3.0, deadline=20.0))
    b = _job(1.0, _task("b0", 2, 5.0, deadline=30.0))
    return Schedule(4), a, b


def _resize(**overrides) -> ResizeRecord:
    """A valid grow record; builders override exactly one field to plant a bug.

    Baseline: a 2p x 6t task (area 12) interrupted at t=10 restarts on 3p
    for 4t after a 1t reconfiguration charge — work-conserving, inside its
    [1, 4] width band, starting exactly at ``time + delay``.
    """
    base = dict(
        kind="grow",
        job_id=0,
        task="m0",
        time=10.0,
        delay=1.0,
        old_width=2,
        new_width=3,
        max_width=4,
        task_area=12.0,
        new_start=11.0,
        new_duration=4.0,
    )
    base.update(overrides)
    return ResizeRecord(**base)


def clean_baseline() -> MutantScenario:
    """Not a mutant: the uncorrupted scenario, which must audit clean."""
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    _raw_commit(schedule, _rigid_cp(b, 1.0))
    return MutantScenario(
        "clean_baseline",
        "",
        schedule,
        (a, b),
        description="control; no bug",
        resizes=(
            _resize(),
            _resize(
                kind="shrink",
                old_width=3,
                new_width=2,
                new_start=11.5,
                new_duration=6.0,
                delay=1.0,
            ),
        ),
    )


# ---------------------------------------------------------------------------
# The mutants
# ---------------------------------------------------------------------------


def capacity_overshoot() -> MutantScenario:
    schedule, a, _ = _pair()
    wide = _job(1.0, _task("b0", 3, 5.0, deadline=30.0))
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    _raw_commit(schedule, _rigid_cp(wide, 1.0), reserve=False)
    return MutantScenario(
        "capacity_overshoot",
        "capacity",
        schedule,
        (a, wide),
        description="2p+3p co-scheduled over [1, 4) on a 4p machine",
    )


def off_by_eps_reservation() -> MutantScenario:
    schedule, a, _ = _pair()
    cp = _rigid_cp(a, 0.0, 4.0 - 1e-8)  # a1 starts 1e-8 inside a0
    _raw_commit(schedule, cp)
    return MutantScenario(
        "off_by_eps_reservation",
        "precedence",
        schedule,
        (a,),
        description="successor starts 1e-8 before predecessor finishes "
        "(beyond the 1e-9 tolerance)",
    )


def dropped_precedence_edge() -> MutantScenario:
    schedule, a, _ = _pair()
    cp = _rigid_cp(a, 0.0, 2.0)  # a1 fully overlaps a0's second half
    _raw_commit(schedule, cp)
    return MutantScenario(
        "dropped_precedence_edge",
        "precedence",
        schedule,
        (a,),
        description="chain tasks scheduled as if independent",
    )


def deadline_miss() -> MutantScenario:
    schedule = Schedule(4)
    job = _job(0.0, _task("t0", 2, 4.0, deadline=20.0), _task("t1", 2, 3.0, deadline=6.0))
    cp = _rigid_cp(job, 0.0, 4.0)  # t1 ends at 7 > deadline 6
    _raw_commit(schedule, cp)
    return MutantScenario(
        "deadline_miss",
        "deadline",
        schedule,
        (job,),
        description="admitted chain finishes one time-unit past its deadline",
    )


def early_start() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    _raw_commit(schedule, _rigid_cp(b, 0.5))  # release is 1.0
    return MutantScenario(
        "early_start",
        "release",
        schedule,
        (a, b),
        description="task starts before its job arrives",
    )


def wrong_shape_width() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    cp = _rigid_cp(b, 7.0)
    fat = replace(cp.placements[0], processors=3)  # request is 2p
    _raw_commit(schedule, replace(cp, placements=(fat,)))
    return MutantScenario(
        "wrong_shape_width",
        "shape.width",
        schedule,
        (a, b),
        description="rigid task granted 3p instead of the requested 2p",
    )


def wrong_shape_duration() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    cp = _rigid_cp(b, 7.0)
    short = replace(cp.placements[0], duration=4.5)  # request is 5t
    _raw_commit(schedule, replace(cp, placements=(short,)))
    return MutantScenario(
        "wrong_shape_duration",
        "shape.duration",
        schedule,
        (a, b),
        description="rigid task reserved for 4.5t instead of 5t",
    )


def wrong_config() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    rogue = TaskChain((_task("b0-rogue", 2, 5.0, deadline=30.0),))
    cp = ChainPlacement(
        job_id=b.job_id,
        chain_index=0,
        chain=rogue,
        placements=(Placement.rigid(rogue.tasks[0], 1.0),),
        release=b.release,
    )
    _raw_commit(schedule, cp)
    return MutantScenario(
        "wrong_config",
        "config",
        schedule,
        (a, b),
        description="placed chain is not one the job offered",
    )


def stale_rollback_window() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    _raw_commit(schedule, _rigid_cp(b, 1.0))
    schedule._last_finish = 12.0  # as if a rolled-back job's finish survived
    return MutantScenario(
        "stale_rollback_window",
        "ledger.window",
        schedule,
        (a, b),
        description="utilization window still spans a rolled-back placement "
        "(the pre-PR-3 accounting bug)",
    )


def area_ledger_drift() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    _raw_commit(schedule, _rigid_cp(b, 1.0))
    schedule._committed_area += 1.0
    return MutantScenario(
        "area_ledger_drift",
        "ledger.area",
        schedule,
        (a, b),
        description="committed_area drifted from the placement sum",
    )


def job_count_drift() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    _raw_commit(schedule, _rigid_cp(b, 1.0))
    schedule._committed_jobs += 1
    return MutantScenario(
        "job_count_drift",
        "ledger.jobs",
        schedule,
        (a, b),
        description="committed_jobs counts a job with no placement",
    )


def phantom_reservation() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    _raw_commit(schedule, _rigid_cp(b, 1.0))
    schedule.profile.reserve(10.0, 12.0, 1)  # no placement backs this
    return MutantScenario(
        "phantom_reservation",
        "profile",
        schedule,
        (a, b),
        description="profile holds processors no committed job owns",
    )


def missing_reservation() -> MutantScenario:
    schedule, a, b = _pair()
    _raw_commit(schedule, _rigid_cp(a, 0.0, 4.0))
    cp = _rigid_cp(b, 1.0)
    _raw_commit(schedule, cp)
    pl = cp.placements[0]
    schedule.profile.release(pl.start, pl.end, pl.processors)
    return MutantScenario(
        "missing_reservation",
        "profile",
        schedule,
        (a, b),
        description="a committed placement's processors were given away",
    )


def malleable_overwide() -> MutantScenario:
    schedule = Schedule(8)
    job = _job(0.0, _task("m0", 2, 4.0, deadline=50.0, max_concurrency=2))
    cp = ChainPlacement(
        job_id=job.job_id,
        chain_index=0,
        chain=job.chains[0],
        # Work-conserving (8 area) but 4p > max_concurrency 2.
        placements=(Placement(job.chains[0].tasks[0], 0.0, 4, 2.0),),
        release=0.0,
    )
    _raw_commit(schedule, cp)
    return MutantScenario(
        "malleable_overwide",
        "shape.malleable",
        schedule,
        (job,),
        malleable=True,
        description="reshape exceeds the task's degree of concurrency",
    )


def nonconserving_reshape() -> MutantScenario:
    schedule = Schedule(8)
    job = _job(0.0, _task("m0", 2, 4.0, deadline=50.0, max_concurrency=4))
    cp = ChainPlacement(
        job_id=job.job_id,
        chain_index=0,
        chain=job.chains[0],
        # Within concurrency but 2p x 3t = 6 area, task needs 8.
        placements=(Placement(job.chains[0].tasks[0], 0.0, 2, 3.0),),
        release=0.0,
    )
    _raw_commit(schedule, cp)
    return MutantScenario(
        "nonconserving_reshape",
        "shape.malleable",
        schedule,
        (job,),
        malleable=True,
        description="reshape silently sheds work (area not conserved)",
    )


def resize_sheds_work() -> MutantScenario:
    """A resize that pays its reconfiguration cost by shrinking the work.

    The restarted placement carries 3p x 3t = 9 processor-time for a task
    declaring 12 — the classic unsound shortcut where the restart keeps
    credit for the consumed partial run instead of re-executing from
    scratch (the Calypso model the accounting assumes).
    """
    return MutantScenario(
        "resize_sheds_work",
        "resize.area",
        Schedule(4),
        (),
        malleable=True,
        description="restarted task area 9 for a 12-area task",
        resizes=(_resize(new_duration=3.0),),
    )


def resize_overlaps_prefix() -> MutantScenario:
    """A resize whose restart begins inside the charged reconfiguration window.

    The restart at t=10.5 precedes ``time + delay = 11``: the new placement
    overlaps the checkpoint interval — and, transitively, the
    consumed prefix the cut at ``time`` was protecting.
    """
    return MutantScenario(
        "resize_overlaps_prefix",
        "resize.overlap",
        Schedule(4),
        (),
        malleable=True,
        description="restart at 10.5 before resize time 10 + delay 1",
        resizes=(_resize(new_start=10.5),),
    )


def resize_width_runaway() -> MutantScenario:
    """A 'grow' that lands outside the task's declared width band.

    6p exceeds ``max_width`` 4 (= min(max_concurrency, capacity)): the
    resize stole processors the task's degree of concurrency cannot use.
    """
    return MutantScenario(
        "resize_width_runaway",
        "resize.width",
        Schedule(4),
        (),
        malleable=True,
        description="grow to 6p past the [1, 4] width band",
        resizes=(_resize(new_width=6, new_duration=2.0),),
    )


#: Every mutant builder, in catalogue order.  ``clean_baseline`` is not in
#: here — it is the control the test suite audits separately.
MUTANT_BUILDERS: tuple[Callable[[], MutantScenario], ...] = (
    capacity_overshoot,
    off_by_eps_reservation,
    dropped_precedence_edge,
    deadline_miss,
    early_start,
    wrong_shape_width,
    wrong_shape_duration,
    wrong_config,
    stale_rollback_window,
    area_ledger_drift,
    job_count_drift,
    phantom_reservation,
    missing_reservation,
    malleable_overwide,
    nonconserving_reshape,
    resize_sheds_work,
    resize_overlaps_prefix,
    resize_width_runaway,
)


def build_all_mutants() -> list[MutantScenario]:
    """Fresh instances of every mutant scenario."""
    return [build() for build in MUTANT_BUILDERS]


def audit_scenario(scenario: MutantScenario) -> set[str]:
    """All violation codes the auditor raises against one scenario.

    Runs the schedule audit and, when the scenario carries a resize
    stream, the resize audit; the selftest (``python -m repro.verify
    --selftest``) and the test suite share this so both always exercise
    both checkers.
    """
    from repro.verify.auditor import ScheduleAuditor

    auditor = ScheduleAuditor(malleable=scenario.malleable)
    codes = set(auditor.audit(scenario.schedule, scenario.jobs).codes)
    if scenario.resizes:
        codes |= auditor.audit_resizes(scenario.resizes).codes
    return codes
