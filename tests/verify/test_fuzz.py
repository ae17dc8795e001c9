"""The fuzzer itself: determinism, the check battery, and the shrinker."""

from __future__ import annotations

import random

from repro.verify.fuzz import (
    FuzzCase,
    check_case,
    fuzz,
    load_case,
    persist_failure,
    random_case,
    run_case,
    shrink,
)
from repro.verify.oracle import OracleLimits


def test_fuzz_campaign_is_deterministic():
    a = fuzz(25, seed=5)
    b = fuzz(25, seed=5)
    assert (a.cases, a.failures) == (b.cases, b.failures)


def test_fuzz_smoke_is_clean():
    report = fuzz(40, seed=7, malleable_share=0.25)
    assert report.ok, report.summary()


def test_fuzz_counts_cases_beyond_the_oracle_limits(monkeypatch):
    """A case the oracle cannot bound is counted and reported, not passed
    over as clean."""
    import repro.verify.fuzz as fuzz_module

    monkeypatch.setattr(fuzz_module, "_ORACLE_LIMITS", OracleLimits(max_nodes=1))
    report = fuzz_module.fuzz(6, seed=3)
    assert report.ok
    assert 0 < report.skipped <= report.cases
    assert f"oracle skipped on {report.skipped} beyond its limits" in report.summary()


def test_every_hundredth_case_is_a_pressure_case(monkeypatch):
    """CI's 200-case campaigns draw two table-pressure cases, and each
    gets the differential matrix as well as batch identity."""
    import repro.verify.fuzz as fuzz_module

    drawn, checked = [], []
    tiny = FuzzCase(capacity=1, jobs=())
    monkeypatch.setattr(fuzz_module, "random_case", lambda rng, **kw: tiny)
    monkeypatch.setattr(fuzz_module, "random_flood", lambda rng: tiny)
    monkeypatch.setattr(fuzz_module, "check_case", lambda case, **kw: [])
    monkeypatch.setattr(fuzz_module, "batch_failures", lambda case: [])
    monkeypatch.setattr(
        fuzz_module, "random_pressure", lambda rng: drawn.append(1) or tiny
    )
    monkeypatch.setattr(
        fuzz_module, "differential_failures", lambda case: checked.append(1) or []
    )
    assert fuzz_module.fuzz(200, seed=7).ok
    assert len(drawn) == len(checked) == 2


def test_random_case_round_trips_through_json():
    rng = random.Random(3)
    for _ in range(10):
        case = random_case(rng, max_jobs=4, malleable=rng.random() < 0.5)
        clone = FuzzCase.from_dict(case.to_dict())
        assert clone.case_id == case.case_id
        assert clone.capacity == case.capacity
        assert clone.malleable == case.malleable
        assert len(clone.jobs) == len(case.jobs)


def test_run_case_digest_is_stable_across_backends():
    rng = random.Random(11)
    case = random_case(rng, max_jobs=4)
    digests = {
        run_case(case, backend=backend, audit=False)[0]
        for backend in ("scalar", "auto")
    }
    assert len(digests) == 1


def test_check_case_flags_nothing_on_known_good_cases():
    rng = random.Random(19)
    for _ in range(5):
        assert check_case(random_case(rng, max_jobs=3)) == []


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _planted_bug(case: FuzzCase) -> bool:
    """A synthetic failure oracle: trips on any ≥2-task chain anywhere.

    Stands in for a real scheduler bug whose trigger is one structural
    feature; everything else in the case is shrinkable noise.
    """
    return any(
        len(chain.tasks) >= 2 for job in case.jobs for chain in job.chains
    )


def test_shrinker_reduces_planted_bug_to_tiny_reproducer():
    rng = random.Random(23)
    # Grow a deliberately bloated case: 8 jobs, at least one multi-task chain.
    while True:
        case = random_case(rng, max_jobs=8)
        if len(case.jobs) >= 6 and _planted_bug(case):
            break
    small = shrink(case, _planted_bug)
    assert _planted_bug(small), "shrinker lost the failure"
    assert len(small.jobs) <= 5, f"reproducer still has {len(small.jobs)} jobs"
    assert len(small.jobs) == 1  # this bug needs exactly one job
    assert sum(len(c.tasks) for j in small.jobs for c in j.chains) <= 2


def test_shrinker_is_a_fixpoint():
    rng = random.Random(29)
    while True:
        case = random_case(rng, max_jobs=6)
        if _planted_bug(case):
            break
    once = shrink(case, _planted_bug)
    twice = shrink(once, _planted_bug)
    assert twice.case_id == once.case_id


def test_persist_and_reload_failure(tmp_path):
    rng = random.Random(31)
    case = random_case(rng, max_jobs=3)
    path = persist_failure(case, ["synthetic failure"], tmp_path)
    assert path.name == f"fuzz-{case.case_id}.json"
    assert load_case(path).case_id == case.case_id


def test_fuzz_writes_shrunk_reproducer_to_corpus(tmp_path, monkeypatch):
    """A failing check during a campaign must land in the corpus dir."""
    import repro.verify.fuzz as fuzz_module

    real_check = fuzz_module.check_case

    def buggy_check(case, **kwargs):
        failures = real_check(case, **kwargs)
        if any(len(c.tasks) >= 2 for j in case.jobs for c in j.chains):
            failures = failures + ["planted: multi-task chain"]
        return failures

    monkeypatch.setattr(fuzz_module, "check_case", buggy_check)
    report = fuzz_module.fuzz(15, seed=13, corpus_dir=tmp_path)
    assert not report.ok
    assert report.corpus_written
    written = list(tmp_path.glob("fuzz-*.json"))
    assert written, "no reproducer was persisted"
    for path in written:
        reloaded = load_case(path)
        assert buggy_check(reloaded), "persisted reproducer does not fail"
        assert len(reloaded.jobs) <= 5, "reproducer was not shrunk"
