"""``QoSArbitrator.admit_batch``: bit-identical replay of the serial loop.

The equivalence contract (see :mod:`repro.core.kernels.batch`): a batch
produces *exactly* the decisions, profile, and accounting the serial
``submit`` loop produces in arrival order — for every back-end,
tie-break policy, kernel implementation, scheduler flavour, and
arbitration objective, including batches interrupted by a
capacity-fault schedule swap from :mod:`repro.resilience`.  Identity is
asserted on full observable state, not just the decision digests.

``submit`` itself is a batch of one through the C loop on every back-end
but ``"scalar"``, so the serial side of each comparison pins
``backend="scalar"``: the tests stay C against Python, not C against C.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.arbitrator import ArbitrationObjective, QoSArbitrator
from repro.core.policies import TieBreakPolicy
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.resilience.events import CapacityEvent
from repro.verify.fuzz import (
    _RANDOM_POLICY_SEED,
    random_case,
    random_flood,
    run_case,
)


def _kernel_modes() -> tuple[str, ...]:
    try:
        with kernels.use("compiled"):
            return ("compiled", "python")
    except ConfigurationError:
        return ("python",)


KERNEL_MODES = _kernel_modes()


def _state(arbitrator: QoSArbitrator) -> tuple:
    """Everything observable, the schedule's accounting and commit order
    included: the batched write-back books a whole batch at once."""
    schedule = arbitrator.schedule
    profile = schedule.profile
    return (
        tuple(profile._times),  # noqa: SLF001 - identity, not API
        tuple(profile._avail),  # noqa: SLF001
        arbitrator.admitted,
        arbitrator.rejected,
        dict(arbitrator.decisions_by_chain),
        arbitrator._quality_sum,  # noqa: SLF001
        arbitrator._quality_possible,  # noqa: SLF001
        arbitrator.utilization(),
        schedule.committed_area,
        schedule.committed_jobs,
        schedule.first_release,
        schedule.last_finish,
        schedule.placements,
    )


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@pytest.mark.parametrize("backend", ("auto",))
@pytest.mark.parametrize("malleable", (True, False))
@pytest.mark.parametrize("policy", tuple(TieBreakPolicy))
def test_batch_identical_to_serial_across_matrix(kmode, backend, malleable, policy):
    with kernels.use(kmode):
        for seed in range(8):
            case = random_case(random.Random(seed), malleable=malleable)
            serial = run_case(  # scalar: the Python-decided side
                case, backend="scalar", policy=policy, audit=False
            )
            batch = run_case(
                case, backend=backend, policy=policy, audit=False, batch=True
            )
            assert batch == serial


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    malleable=st.booleans(),
    backend=st.sampled_from(("auto", "scalar")),
    policy=st.sampled_from(tuple(TieBreakPolicy)),
    kmode=st.sampled_from(KERNEL_MODES),
)
@settings(max_examples=40, deadline=None)
def test_batch_identity_property(seed, malleable, backend, policy, kmode):
    """Hypothesis sweep over the whole configuration space: any workload,
    any back-end × tie-break × kernel, batch == serial."""
    with kernels.use(kmode):
        case = random_case(random.Random(seed), malleable=malleable)
        serial = run_case(  # scalar: the Python-decided side
            case, backend="scalar", policy=policy, audit=False
        )
        batch = run_case(
            case, backend=backend, policy=policy, audit=False, batch=True
        )
        assert batch == serial


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_empty_batch_is_a_no_op(kmode):
    with kernels.use(kmode):
        arbitrator = QoSArbitrator(8)
        before = _state(arbitrator)
        assert arbitrator.admit_batch([]) == []
        assert _state(arbitrator) == before


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_single_job_batch_matches_submit(kmode):
    with kernels.use(kmode):
        for seed in range(12):
            case = random_case(random.Random(seed))
            job = case.jobs[0]
            a = QoSArbitrator(  # scalar: submit decided in Python
                case.capacity, seed=_RANDOM_POLICY_SEED, backend="scalar"
            )
            b = QoSArbitrator(case.capacity, seed=_RANDOM_POLICY_SEED)
            d_serial = a.submit(job)
            (d_batch,) = b.admit_batch([job])
            assert (d_batch.admitted, d_batch.chain_index) == (
                d_serial.admitted, d_serial.chain_index,
            )
            if d_serial.placement is not None:
                assert d_batch.placement.placements == (
                    d_serial.placement.placements
                )
            assert _state(a) == _state(b)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_batch_spanning_capacity_fault_event(kmode):
    """Admissions on either side of a resilience capacity fault agree.

    Mirrors what :class:`repro.resilience.driver.RenegotiationDriver`
    does at a :class:`CapacityEvent`: the arbitrator adopts a fresh,
    smaller schedule and subsequent admissions (batched or serial) probe
    the post-fault profile.
    """
    with kernels.use(kmode):
        for seed in range(6):
            case = random_case(random.Random(seed), max_jobs=8)
            event = CapacityEvent(time=0.0, new_capacity=max(2, case.capacity // 2))
            cut = len(case.jobs) // 2
            arbs = []
            for batched in (False, True):
                # scalar on the serial side: submit decided in Python
                backend = "auto" if batched else "scalar"
                arbitrator = QoSArbitrator(
                    case.capacity, seed=_RANDOM_POLICY_SEED, backend=backend
                )

                def feed(jobs, *, batched=batched, arbitrator=arbitrator):
                    if batched:
                        arbitrator.admit_batch(list(jobs))
                    else:
                        for job in jobs:
                            arbitrator.submit(job)

                feed(case.jobs[:cut])
                arbitrator.adopt_schedule(
                    Schedule(event.new_capacity, origin=event.time)
                )
                feed(case.jobs[cut:])
                arbs.append(arbitrator)
            serial, batch = arbs
            assert _state(serial) == _state(batch)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_malleable_batch_falls_back_yet_matches(kmode):
    """MalleableScheduler never takes the compiled fast path, but the
    generic (pre-screened serial) batch path must still be identical."""
    with kernels.use(kmode):
        for seed in range(6):
            case = random_case(random.Random(seed), malleable=True)
            a = QoSArbitrator(
                case.capacity, malleable=True, seed=_RANDOM_POLICY_SEED
            )
            b = QoSArbitrator(
                case.capacity, malleable=True, seed=_RANDOM_POLICY_SEED
            )
            for job in case.jobs:
                a.submit(job)
            b.admit_batch(list(case.jobs))
            assert _state(a) == _state(b)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_max_quality_objective_batch_matches(kmode):
    with kernels.use(kmode):
        for seed in range(5):
            case = random_case(random.Random(seed))
            a = QoSArbitrator(
                case.capacity,
                objective=ArbitrationObjective.MAX_QUALITY,
                seed=_RANDOM_POLICY_SEED,
            )
            b = QoSArbitrator(
                case.capacity,
                objective=ArbitrationObjective.MAX_QUALITY,
                seed=_RANDOM_POLICY_SEED,
            )
            for job in case.jobs:
                a.submit(job)
            b.admit_batch(list(case.jobs))
            assert _state(a) == _state(b)


@pytest.mark.skipif(
    KERNEL_MODES == ("python",), reason="compiled kernel unavailable"
)
def test_fast_path_taken_and_counted():
    """Eligible batches actually run the one-call C loop (no fallback)."""
    with kernels.use("compiled"):
        case = random_case(random.Random(1))
        arbitrator = QoSArbitrator(case.capacity, seed=_RANDOM_POLICY_SEED)
        arbitrator.admit_batch(list(case.jobs))
        snap = arbitrator.perf_snapshot()
        assert snap["kernel_backend"] == "compiled"
        assert snap["batch_jobs"] == len(case.jobs)
        assert snap["batch_fallbacks"] == 0


def test_random_policy_batch_uses_serial_replay():
    """RANDOM tie-breaks consume the Python RNG stream, so the batch path
    must fall back to the serial loop — and still match bit-for-bit."""
    for kmode in KERNEL_MODES:
        with kernels.use(kmode):
            case = random_case(random.Random(5))
            serial = run_case(
                case, policy=TieBreakPolicy.RANDOM, audit=False
            )
            batch = run_case(
                case, policy=TieBreakPolicy.RANDOM, audit=False, batch=True
            )
            assert batch == serial


# ---------------------------------------------------------------------------
# Floods: the compiled loop's no-fit facts must stay invisible
# ---------------------------------------------------------------------------
#
# Inside one ``repro_admit_batch`` call a probe starts past every start
# time an earlier probe of the same call ruled out for a request no
# wider and no longer (``_kernels.c``, "The no-fit frontier").  The cases
# above have at most eight jobs and never reuse such a fact; these do.

_DETERMINISTIC = (TieBreakPolicy.PAPER, TieBreakPolicy.FIRST, TieBreakPolicy.PREFIX)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    compact=st.booleans(),
    policy=st.sampled_from(_DETERMINISTIC),
    kmode=st.sampled_from(KERNEL_MODES),
)
@settings(max_examples=30, deadline=None)
def test_flood_batch_identical_to_serial(seed, compact, policy, kmode):
    """200-600 jobs from at most six shapes, one ``admit_batch`` call.

    Without compaction the releases are also made non-monotone (a fact
    learnt from a later release must not serve an earlier one).
    """
    rng = random.Random(seed)
    case = random_flood(rng, min_jobs=200, max_jobs=600)
    jobs = list(case.jobs)
    if not compact:
        jobs = [
            Job(chains=j.chains, release=max(0.0, j.release - rng.randint(0, 60) / 2))
            for j in jobs
        ]
    serial, batch = (
        QoSArbitrator(case.capacity, compact=compact, policy=policy, backend=backend)
        for backend in ("scalar", "auto")  # scalar: submit decided in Python
    )
    for job in jobs:
        serial.submit(job)
    with kernels.use(kmode):
        batch.admit_batch(jobs)
    assert _state(batch) == _state(serial)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@pytest.mark.parametrize("how", ("rollback", "release"))
def test_no_fit_facts_do_not_cross_calls(kmode, how):
    """admit_batch, hand an admitted job's processors back, admit_batch.

    The second call probes a profile whose availability *rose* where the
    first call had ruled starts out; it must see the freed room exactly
    as the serial loop does.
    """
    for seed in range(6):
        case = random_flood(random.Random(seed), min_jobs=200, max_jobs=300)
        cut = len(case.jobs) // 2
        head, tail = list(case.jobs[:cut]), list(case.jobs[cut:])
        serial, batch = (QoSArbitrator(case.capacity) for _ in range(2))
        first = [serial.submit(job) for job in head]
        with kernels.use(kmode):
            assert [d.admitted for d in batch.admit_batch(head)] == [
                d.admitted for d in first
            ]
        # The admitted job that finishes last: its room lies in the future
        # of every later release, where the first call's probes gave up.
        freed = max(
            (d.placement for d in first if d.admitted), key=lambda cp: cp.finish
        )
        for arbitrator in (serial, batch):
            if how == "rollback":
                (cp,) = (
                    c for c in arbitrator.schedule.placements
                    if c.job_id == freed.job_id
                )
                arbitrator.schedule.rollback(cp)
            else:
                for pl in reversed(freed.placements):
                    arbitrator.schedule.profile.release(
                        pl.start, pl.end, pl.processors
                    )
        for job in tail:
            serial.submit(job)
        with kernels.use(kmode):
            batch.admit_batch(tail)
        assert _state(batch) == _state(serial)


def _one_task(width, duration, deadline):
    task = TaskSpec("t", ProcessorTimeRequest(width, duration), deadline=deadline)
    return (TaskChain((task,), label="c"),)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_more_shapes_than_the_fact_table_holds(kmode):
    """100 durations, each needing a later gap than the one before, so no
    fact makes another redundant: an unbounded table peaks at 70 facts
    here (instrumented build), the real one (64) has to evict."""
    teeth, t = [], 0.0
    for k in range(100):  # 3 of 4 processors busy for 1, then a gap of 1 + k/4
        teeth.append(Job(chains=_one_task(3, 1.0, 1.0), release=t))
        t += 2.0 + k / 4
    durations = [1.0 + k / 4 for k in range(100)] * 3
    random.Random(0).shuffle(durations)
    flood = [Job(chains=_one_task(2, d, 10_000.0), release=0.0) for d in durations]
    serial, batch = (  # scalar: submit decided in Python
        QoSArbitrator(4, compact=False, backend=backend) for backend in ("scalar", "auto")
    )
    for arbitrator in (serial, batch):
        assert all(arbitrator.submit(job).admitted for job in teeth)
    for job in flood:
        serial.submit(job)
    with kernels.use(kmode):
        batch.admit_batch(flood)
    assert _state(batch) == _state(serial)


@pytest.mark.skipif(
    KERNEL_MODES == ("python",), reason="compiled kernel unavailable"
)
def test_repeated_rejections_do_not_rescan_the_profile():
    """Counter regression: a flood of identical jobs that all fail after
    walking a comb of too-short gaps.  The serial scalar scan walks the
    comb once per job; the C loop walks it once per call."""
    # 300 teeth: 3 of 4 processors busy over [2k, 2k+1), all free over
    # [2k+1, 2k+2) — no gap holds a 2 x 1.5 request before t = 600.
    comb = [
        Job(chains=_one_task(3, 1.0, 1.0), release=2.0 * k) for k in range(300)
    ]
    flood = [Job(chains=_one_task(2, 1.5, 500.0), release=0.0) for _ in range(200)]
    segments = []
    for batched in (False, True):
        arbitrator = QoSArbitrator(4, compact=False, backend="scalar")
        assert all(arbitrator.submit(job).admitted for job in comb)
        stats = arbitrator.schedule.profile.stats
        before = stats.probe_segments
        if batched:
            with kernels.use("compiled"):
                decisions = arbitrator.admit_batch(flood)
        else:
            decisions = [arbitrator.submit(job) for job in flood]
        assert not any(d.admitted for d in decisions)
        segments.append(stats.probe_segments - before)
    serial_segments, batch_segments = segments
    assert serial_segments >= 200 * 400
    assert 3 * batch_segments <= serial_segments


# ---------------------------------------------------------------------------
# Bulk write-back: one pass over the kernel's columns, one booking per batch
# ---------------------------------------------------------------------------

needs_compiled = pytest.mark.skipif(
    KERNEL_MODES == ("python",), reason="compiled kernel unavailable"
)


def _flood(seed: int):
    case = random_flood(random.Random(seed), min_jobs=200, max_jobs=300)
    return case.capacity, list(case.jobs)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_batch_serial_batch_keeps_commit_order(kmode):
    """admit_batch, submit, admit_batch: ``schedule.placements`` lists the
    commits in the all-serial order."""
    for seed in range(4):
        capacity, jobs = _flood(seed)
        a, b = len(jobs) // 3, 2 * len(jobs) // 3
        # scalar: the all-serial order is the Python-decided one
        serial, mixed = QoSArbitrator(capacity, backend="scalar"), QoSArbitrator(capacity)
        for job in jobs:
            serial.submit(job)
        with kernels.use(kmode):
            mixed.admit_batch(jobs[:a])
            for job in jobs[a:b]:
                mixed.submit(job)
            mixed.admit_batch(jobs[b:])
        assert mixed.schedule.placements == serial.schedule.placements
        assert _state(mixed) == _state(serial)
        mixed.schedule.check_consistency()


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@pytest.mark.parametrize("which", ("earliest-release", "latest-finish"))
def test_rollback_after_a_batch_shrinks_the_window(kmode, which):
    """Rolling back the job that bounds the utilization window moves the
    window exactly as after serial submits: the bulk booking fills the
    release/finish multisets, not just the running extremes."""
    for seed in range(4):
        capacity, jobs = _flood(seed)
        # No compaction: the earliest job's room must still be on the profile.
        serial, batch = (  # scalar: submit decided in Python
            QoSArbitrator(capacity, compact=False, backend=backend)
            for backend in ("scalar", "auto")
        )
        placed = [
            d.placement for d in map(serial.submit, jobs) if d.admitted
        ]
        with kernels.use(kmode):
            batch.admit_batch(jobs)
        if which == "earliest-release":
            cp = min(placed, key=lambda c: c.release)
        else:
            cp = max(placed, key=lambda c: c.finish)
        for arbitrator in (serial, batch):
            arbitrator.schedule.rollback(cp)  # equal by value in ``batch``
        assert batch.schedule.first_release == serial.schedule.first_release
        assert batch.schedule.last_finish == serial.schedule.last_finish
        assert batch.utilization() == serial.utilization()
        assert _state(batch) == _state(serial)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_decisions_share_their_placements_with_the_schedule(kmode):
    capacity, jobs = _flood(0)
    arbitrator = QoSArbitrator(capacity)
    with kernels.use(kmode):
        decisions = arbitrator.admit_batch(jobs)
    assert isinstance(decisions, list)
    assert [d.job_id for d in decisions] == [j.job_id for j in jobs]
    held = arbitrator.schedule.placements
    admitted = [d.placement for d in decisions if d.admitted]
    assert len(held) == len(admitted) > 0
    assert all(mine is theirs for mine, theirs in zip(admitted, held))


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_keep_placements_false_retains_nothing(kmode):
    capacity, jobs = _flood(1)
    kept, flat = (
        QoSArbitrator(capacity, keep_placements=keep) for keep in (True, False)
    )
    with kernels.use(kmode):
        for arbitrator in (kept, flat):
            decisions = arbitrator.admit_batch(jobs)
    assert flat.schedule.placements == () != kept.schedule.placements
    assert [d.placement for d in decisions if d.admitted] == list(
        kept.schedule.placements
    )
    assert _state(flat)[:-1] == _state(kept)[:-1]  # all but ``placements``


def test_record_commits_is_record_commit_repeated():
    """The bulk form a batch's write-back uses and the one-row form a
    one-job call (and ``commit``) books with are two copies of one
    accounting, fed the finish and area the kernel returned — and, for a
    carried placement, an area below ``total_area``."""
    capacity, jobs = _flood(2)
    auto = QoSArbitrator(capacity)
    placed, finishes, areas = [], [], []
    for job in jobs:
        decision = auto.submit(job)
        if not decision.admitted:
            continue
        cp = decision.placement
        ctx = auto.schedule.profile._ctx  # noqa: SLF001 - None without a C compiler
        finish, area = (ctx.rows[0], ctx.rows[1]) if ctx else (cp.finish, cp.total_area)
        for kernels_own, derived in ((finish, cp.finish), (area, cp.total_area)):
            assert float(kernels_own).hex() == float(derived).hex()
        placed.append(cp)
        finishes.append(finish)
        areas.append(area)
    names = (
        "placements", "committed_area", "committed_jobs", "first_release",
        "last_finish", "_releases", "_finishes",
    )
    mid = len(placed) // 2
    for fed in ([a / 3 for a in areas], areas):  # as if carried; as booked
        one, bulk = Schedule(capacity), Schedule(capacity)
        for cp, finish, area in zip(placed, finishes, fed):
            one.record_commit(cp, finish, area)
        for lo, hi in ((0, mid), (mid, len(placed))):
            bulk.record_commits(placed[lo:hi], finishes[lo:hi], fed[lo:hi])
        for name in names:
            assert getattr(bulk, name) == getattr(one, name), name
        total = 0.0
        for area in fed:
            total += area
        assert one.committed_area == total
    for name in names:  # what the one-job write-back booked, row by row
        assert getattr(auto.schedule, name) == getattr(one, name), name


def _long_chain_jobs(rng: random.Random, n_tasks: int, n_jobs: int) -> list[Job]:
    """Two alternative chains of ``n_tasks`` tasks whose areas and
    qualities are not exactly representable sums."""
    jobs, release = [], 0.0
    for _ in range(n_jobs):
        chains = []
        for c in range(2):
            elapsed, tasks = 0.0, []
            for t in range(n_tasks):
                duration = rng.uniform(0.1, 3.0)
                elapsed += duration
                tasks.append(
                    TaskSpec(
                        f"c{c}t{t}",
                        ProcessorTimeRequest(rng.randint(1, 5), duration),
                        deadline=elapsed + rng.uniform(0.0, 6.0),
                        quality=rng.uniform(0.05, 1.0),
                    )
                )
            chains.append(TaskChain(tuple(tasks), label=f"c{c}"))
        jobs.append(Job(chains=tuple(chains), release=release))
        release += rng.uniform(0.0, 0.6 * n_tasks)  # about 1.5x overload
    return jobs


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@pytest.mark.parametrize("n_tasks", (1, 3, 9))
def test_float_accumulators_bit_equal_to_serial(kmode, n_tasks):
    """Sums of three or more terms are where an out-of-order reduction
    (``np.add.reduceat``) parts from the serial left-to-right additions."""
    jobs = _long_chain_jobs(random.Random(n_tasks), n_tasks, 120)
    serial, batch = (  # scalar: the serial loop's own Python additions
        QoSArbitrator(8, backend=backend)
        for backend in ("scalar", "auto")
    )
    for job in jobs:
        serial.submit(job)
    with kernels.use(kmode):
        batch.admit_batch(jobs[:50])
        batch.admit_batch(jobs[50:])
    assert 0 < serial.admitted < len(jobs)
    assert batch.schedule.committed_area == serial.schedule.committed_area
    assert batch._quality_sum == serial._quality_sum  # noqa: SLF001
    assert batch._quality_possible == serial._quality_possible  # noqa: SLF001
    assert _state(batch) == _state(serial)
    # Batches of 1, 7 and the rest: a one-job call, a small batch (fully
    # admitted at one task a chain, partly at three and nine) and a partly
    # admitted large one all book ``committed_area`` / ``last_finish`` from
    # the kernel's finish and area columns, which hold admitted rows only.
    split = QoSArbitrator(8)
    with kernels.use(kmode):
        sizes = [len(split.admit_batch(part)) for part in (jobs[:1], jobs[1:8], jobs[8:])]
    assert sizes == [1, 7, len(jobs) - 8]
    assert split.schedule.committed_area == serial.schedule.committed_area
    assert split.schedule.last_finish == serial.schedule.last_finish
    assert _state(split) == _state(serial)


@needs_compiled
def test_oversized_job_stops_the_flatten_sweep(monkeypatch):
    """A job the C loop does not take is found before the rest of the
    batch is flattened, and the batch is decided by the serial loop."""
    from repro.core.kernels import batch as kernel_batch

    monkeypatch.setattr(kernel_batch, "_MAX_TASKS", 2)
    jobs = _long_chain_jobs(random.Random(0), 3, 4)
    assert kernel_batch.flatten_jobs(jobs) is None
    serial, batch = QoSArbitrator(8), QoSArbitrator(8)
    for job in jobs:
        serial.submit(job)
    with kernels.use("compiled"):
        batch.admit_batch(jobs)
    assert batch.perf_snapshot()["batch_fallbacks"] == 1
    assert _state(batch) == _state(serial)
