"""The auditor must catch every hand-seeded bug — and only those.

Each :mod:`repro.verify.mutants` scenario plants exactly one ledger,
profile, shape or timing inconsistency via raw (unvalidated) commits.  A
mutant the auditor misses is a blind spot; a violation on the clean
baseline is a false positive.  Both fail here.
"""

from __future__ import annotations

import pytest

from repro.verify.auditor import ScheduleAuditor, audit_run
from repro.verify.mutants import (
    MUTANT_BUILDERS,
    audit_scenario,
    build_all_mutants,
    clean_baseline,
)

ALL_MUTANTS = build_all_mutants()


def _audit(scenario):
    return audit_run(
        scenario.schedule, list(scenario.jobs), malleable=scenario.malleable
    )


def test_clean_baseline_audits_clean():
    """Clean on both checkers: the schedule audit and the resize audit
    (the baseline carries one valid grow and one valid shrink record)."""
    control = clean_baseline()
    assert control.resizes
    codes = audit_scenario(control)
    assert not codes, sorted(codes)


@pytest.mark.parametrize(
    "scenario", ALL_MUTANTS, ids=[m.name for m in ALL_MUTANTS]
)
def test_mutant_is_flagged_with_expected_code(scenario):
    codes = audit_scenario(scenario)
    assert codes, f"auditor missed mutant {scenario.name}"
    assert scenario.expected_code in codes, (
        f"mutant {scenario.name}: expected violation code "
        f"{scenario.expected_code!r}, got {sorted(codes)}"
    )


def test_selftest_catches_all_mutants():
    """The acceptance-criterion form: N/N mutants caught, zero missed."""
    caught = sum(1 for m in ALL_MUTANTS if audit_scenario(m))
    assert caught == len(ALL_MUTANTS) >= 10


def test_violations_carry_context():
    """Violations are structured records, not bare strings."""
    scenario = next(m for m in ALL_MUTANTS if m.name == "capacity_overshoot")
    report = _audit(scenario)
    v = next(v for v in report.violations if v.code == "capacity")
    assert v.detail
    assert "capacity" in report.summary()


def test_mutant_registry_is_complete():
    """Every registered builder produces a distinct, named scenario."""
    names = [m.name for m in ALL_MUTANTS]
    assert len(names) == len(set(names)) == len(MUTANT_BUILDERS)


def test_auditor_shares_no_scheduler_code():
    """The independence claim: no greedy/admission imports in the auditor."""
    import repro.verify.auditor as auditor_module

    source = open(auditor_module.__file__).read()
    for banned in (
        "repro.core.greedy",
        "repro.core.admission",
        "repro.core.first_fit",
        "from repro.core.profile import",
    ):
        assert banned not in source, f"auditor depends on {banned}"


def test_profile_mode_off_skips_profile_check():
    scenario = next(m for m in ALL_MUTANTS if m.name == "missing_reservation")
    strict = _audit(scenario)
    relaxed = ScheduleAuditor(profile_mode="off", ledger=False).audit(
        scenario.schedule, list(scenario.jobs)
    )
    assert "profile" in strict.codes
    assert "profile" not in relaxed.codes


def test_profile_sweep_matches_the_per_probe_reference():
    """The sort + sweep cross-check flags exactly what probing every cut
    point against every segment and every interval (the quadratic form it
    replaced) flags — on clean schedules and on randomly corrupted ones."""
    import math
    import random

    from repro.core.arbitrator import QoSArbitrator
    from repro.verify.fuzz import random_case

    def reference(auditor, schedule):
        capacity, origin = schedule.capacity, schedule.profile.origin
        segments = list(schedule.profile.segments())
        intervals = auditor._intervals(list(schedule.placements))
        cuts = sorted(
            {origin}
            | {s for s, _, _ in segments if s >= origin}
            | {t for iv in intervals for t in (iv.start, iv.end) if t >= origin}
        )
        flagged = []
        for t0, t1 in zip(cuts, cuts[1:] + [math.inf]):
            if t1 - t0 <= auditor.eps:
                continue
            probe = t0 + min((t1 - t0) / 2, 0.5)
            avail = next((a for s, e, a in segments if s <= probe < e), None)
            if avail is None:
                continue
            busy = sum(iv.processors for iv in intervals if iv.start <= probe < iv.end)
            if avail != capacity - busy:
                flagged.append((probe, avail, capacity - busy))
        return flagged

    rng = random.Random(13)
    corrupted = 0
    for _ in range(40):
        case = random_case(rng, max_jobs=10)
        arbitrator = QoSArbitrator(case.capacity, keep_placements=True)
        for job in case.jobs:
            arbitrator.submit(job)
        schedule = arbitrator.schedule
        for _ in range(rng.randint(0, 3)):  # corrupt: give away or withhold
            start = rng.randint(0, 40) / 2
            try:
                profile = schedule.profile
                mutate = rng.choice((profile.reserve, profile.release))
                mutate(start, start + rng.randint(1, 12) / 2, 1)
            except Exception:
                continue  # the profile refused an out-of-range edit
        auditor = ScheduleAuditor(ledger=False)
        report = auditor.audit(schedule, list(case.jobs))
        got = [v for v in report.violations if v.code == "profile"]
        want = reference(auditor, schedule)
        assert [v.time for v in got] == [probe for probe, _, _ in want]
        for v, (probe, avail, expected) in zip(got, want):
            assert f"says {avail}p free" in v.detail
            assert f"imply {expected}p" in v.detail
        corrupted += bool(want)
    assert corrupted >= 10
