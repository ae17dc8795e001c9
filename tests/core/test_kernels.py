"""The decision-kernel layer: selection, build, and bit-identity.

Three layers of guarantees:

* **selection** — ``REPRO_KERNEL`` validation, the ``set_kernel``/``use``
  override used by benchmarks, the fallback counter, and the
  ``kernel_backend`` / ``kernel_fallbacks`` fields of ``perf_snapshot``;
* **build** — the on-demand C build is cached by mtime and stamps an ABI
  version that the ctypes binding refuses to load when mismatched;
* **bit-identity** — the C loop's walk (``scan_walk``) returns the
  *identical* start (the same float, or the same refusal) as the
  reference walk, :func:`repro.core.first_fit.earliest_fit`, on
  randomized fragmented profiles.  A one-chain, one-task job *is* a
  probe, so the C side is reached through the one entry point there is:
  ``admit_batch``.  Compiled cases are skipped (not silently passed)
  when no compiler is present.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import kernels
from repro.core.arbitrator import ArbitrationObjective, QoSArbitrator
from repro.core.first_fit import earliest_fit
from repro.core.kernels import build
from repro.core.policies import TieBreakPolicy
from repro.core.profile import AvailabilityProfile
from repro.core.resources import TIME_STEP, ProcessorTimeRequest
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from tests.core.test_admit_batch import _one_task, _state


def _have_compiled() -> bool:
    try:
        with kernels.use("compiled"):
            return True
    except ConfigurationError:
        return False


needs_compiled = pytest.mark.skipif(
    not _have_compiled(), reason="no C compiler / compiled kernel available"
)


def _fragmented_profile(rng: random.Random, capacity: int = 16):
    profile = AvailabilityProfile(capacity)
    for _ in range(rng.randint(0, 30)):
        t0 = rng.randrange(0, 40) * 0.25
        t1 = t0 + rng.randrange(1, 12) * 0.25
        avail = profile.min_available(t0, t1)
        if avail:
            profile.reserve(t0, t1, rng.randint(1, avail))
    return profile


# -- selection ---------------------------------------------------------


def test_requested_mode_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "turbo")
    with pytest.raises(ConfigurationError):
        kernels.requested_mode()


def test_use_restores_previous_mode():
    before = kernels.kernel_backend()
    with kernels.use("python"):
        assert kernels.kernel_backend() == "python"
        assert kernels.active().compiled is False
    assert kernels.kernel_backend() == before


def test_note_fallback_counts_and_surfaces_in_perf_snapshot():
    before = kernels.stats.fallbacks
    kernels.note_fallback("unit-test fallback")
    assert kernels.stats.fallbacks == before + 1
    assert kernels.stats.last_reason == "unit-test fallback"
    snap = QoSArbitrator(8).perf_snapshot()
    assert snap["kernel_backend"] in ("compiled", "python")
    assert snap["kernel_fallbacks"] >= before + 1


def test_python_kernels_do_not_support_batch():
    """What ``REPRO_KERNEL=python`` loads has nothing to call: every
    decision is the reference's and a batch counts as a fallback."""
    with kernels.use("python"):
        impl = kernels.active()
        assert impl.compiled is False and impl.supports_batch is False
        arbitrator = QoSArbitrator(4)
        jobs = [Job(chains=_one_task(2, 1.0, 5.0), release=0.0, job_id=k) for k in range(3)]
        assert [d.admitted for d in arbitrator.admit_batch(jobs)] == [True, True, True]
        assert arbitrator.perf_snapshot()["batch_fallbacks"] == 1


# -- build / ABI -------------------------------------------------------


@needs_compiled
def test_build_is_cached_and_abi_stamped():
    path = build.ensure_built()
    assert path.exists()
    # a second call must be a no-op returning the same artifact
    assert build.ensure_built() == path
    from repro.core.kernels import compiled

    lib = compiled.load()
    assert int(lib._lib.repro_abi_version()) == build.ABI_VERSION
    assert lib.compiled is True and lib.supports_batch is True


def test_missing_compiler_raises_configuration_error(monkeypatch):
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    monkeypatch.setattr(
        build.Path, "exists", lambda self: False, raising=False
    )
    with pytest.raises(ConfigurationError):
        build.ensure_built()


# -- bit-identity ------------------------------------------------------


def _probe_through_admit_batch(profile, procs, dur, release, deadline):
    """The start ``admit_batch`` gives a ``procs x dur`` task released at
    ``release`` with absolute ``deadline`` on a copy of ``profile``, or
    None when it refuses: one chain of one task, so the decision is one
    probe.  Deadlines are relative in a job, hence ``deadline - release``
    (exact for the dyadic draws below)."""
    arbitrator = QoSArbitrator(profile.capacity, compact=False)
    arbitrator.schedule.profile = profile.copy()
    job = Job(chains=_one_task(procs, dur, deadline - release), release=release)
    (decision,) = arbitrator.admit_batch([job])
    assert arbitrator.perf_snapshot()["batch_fallbacks"] == (
        0 if kernels.kernel_backend() == "compiled" else 1
    )
    return decision.placement.start if decision.admitted else None


@needs_compiled
def test_compiled_matches_python_kernels_on_random_probes():
    """``scan_walk`` against the reference walk, probes released at a
    breakpoint of the profile."""
    rng = random.Random(11)
    with kernels.use("compiled"):
        for _ in range(200):
            profile = _fragmented_profile(rng)
            times = profile.breakpoints
            procs = rng.randint(1, profile.capacity)
            dur = rng.randrange(1, 10) * 0.25
            release = times[rng.randrange(0, len(times))]
            deadline = release + rng.randrange(1, 40) * 0.5
            c_start = _probe_through_admit_batch(profile, procs, dur, release, deadline)
            p_start = earliest_fit(profile, procs, dur, release, deadline)
            assert c_start == p_start  # exact float equality or both None


@needs_compiled
def test_kernel_backend_decisions_match_scalar_reference():
    """The same with releases off the breakpoints, under both kernels."""
    rng = random.Random(23)
    for _ in range(60):
        seed = rng.randrange(1 << 30)
        starts = {}
        for kmode in ("compiled", "python"):
            case_rng = random.Random(seed)  # same probe for both modes
            with kernels.use(kmode):
                profile = _fragmented_profile(random.Random(seed), capacity=16)
                procs = case_rng.randint(1, 16)
                dur = case_rng.randrange(1, 12) * 0.25
                release = case_rng.randrange(0, 30) * 0.5
                deadline = release + case_rng.randrange(1, 50) * 0.5
                want = earliest_fit(profile, procs, dur, release, deadline)
                got = _probe_through_admit_batch(profile, procs, dur, release, deadline)
                assert got == want
                starts[kmode] = want
        assert starts["compiled"] == starts["python"]


@needs_compiled
def test_probe_infinite_tail_and_exact_deadline():
    gap = AvailabilityProfile.from_segments(4, [(0.0, 0), (1.0, 4)])
    hole = AvailabilityProfile.from_segments(4, [(0.0, 4), (3.0, 1), (5.0, 4)])
    cases = [
        # the last segment extends to +inf: any fit starting there succeeds
        (gap, 2, 100.0, 0.0, math.inf, 1.0),
        # start 1 + duration 3 meets the deadline exactly; a deadline one
        # step earlier misses
        (gap, 2, 3.0, 0.0, 4.0, 1.0),
        (gap, 2, 3.0, 0.0, 4.0 - TIME_STEP, None),
        # a run exactly as long as the task, and one a step short of it
        (hole, 2, 3.0, 0.0, 100.0, 0.0),
        (hole, 2, 3.0 + TIME_STEP, 0.0, 100.0, 5.0),
        # the winning run is the trailing one and the deadline falls before it
        (hole, 2, 4.0, 0.0, 8.0, None),
    ]
    with kernels.use("compiled"):
        for profile, procs, dur, release, deadline, want in cases:
            assert earliest_fit(profile, procs, dur, release, deadline) == want
            assert _probe_through_admit_batch(profile, procs, dur, release, deadline) == want


@needs_compiled
def test_deadline_is_checked_on_a_run_the_walk_starts_inside():
    """A probe whose bound the no-fit frontier raised starts inside a
    sufficient run without having passed the deadline test that guards
    entering one: the test on the winning run is the only one left."""
    jobs = [
        Job(chains=_one_task(2, 3.0, 100.0), release=0.0, job_id=0),  # starts at 1
        Job(chains=_one_task(2, 3.0, 3.5), release=0.0, job_id=1),  # 1 + 3 > 3.5
    ]
    decisions = {}
    with kernels.use("compiled"):
        for backend in ("auto", "scalar"):
            arbitrator = QoSArbitrator(8, compact=False, backend=backend)
            arbitrator.schedule.profile = AvailabilityProfile.from_segments(
                8, [(0.0, 0), (1.0, 8)]
            )
            decisions[backend] = [arbitrator.submit(job) for job in jobs]
    assert decisions["auto"] == decisions["scalar"]
    assert [d.admitted for d in decisions["auto"]] == [True, False]


@pytest.mark.parametrize(
    "config",
    (
        dict(policy=TieBreakPolicy.RANDOM, seed=5),
        dict(malleable=True),
        dict(objective=ArbitrationObjective.MAX_QUALITY),
    ),
    ids=("random", "malleable", "max-quality"),
)
def test_reference_configurations_on_a_deep_profile(config):
    """What the C loop does not take, on a profile deeper than any scan
    crossover there ever was (512): ``auto`` and ``scalar`` decide alike,
    starts and chosen chains included."""
    rng = random.Random(9)
    # 5 of 8 processors busy for 1-2 time units every 3: narrow tasks fit
    # under the teeth, wide ones only in gaps of three different lengths.
    comb = [
        Job(chains=_one_task(5, 1.0 + (k % 3) / 2, 2.0), release=3.0 * k, job_id=k)
        for k in range(320)
    ]

    def chain():
        tasks = tuple(
            TaskSpec(
                "t",
                ProcessorTimeRequest(rng.choice((2, 3, 4, 6)), rng.choice((0.5, 1.0, 1.5, 2.5))),
                deadline=rng.choice((6.0, 40.0, 300.0)),
                quality=rng.choice((0.3, 0.7, 1.0)),
            )
            for _ in range(rng.randint(1, 2))
        )
        return TaskChain(tasks, label="c")

    flood = []
    for k in range(150):
        chains = [chain() for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            chains.append(chains[0])  # a tie for RANDOM to break
        flood.append(Job(chains=tuple(chains), release=6.0 * k, job_id=1000 + k))
    auto, scalar = (
        QoSArbitrator(8, compact=False, backend=backend, **config)
        for backend in ("auto", "scalar")
    )
    for arbitrator in (auto, scalar):
        assert all(arbitrator.submit(job).admitted for job in comb)
        assert len(arbitrator.schedule.profile) >= 600
    decisions = [auto.submit(job) for job in flood]
    assert decisions == [scalar.submit(job) for job in flood]
    assert _state(auto) == _state(scalar)
    assert len(auto.schedule.profile) >= 600
    chosen = {d.chain_index for d in decisions}
    assert len(chosen) >= 3  # not one answer throughout


def _chain(*tasks: tuple[int, float], label: str) -> TaskChain:
    return TaskChain(
        tuple(
            TaskSpec(f"{label}{i}", ProcessorTimeRequest(p, d), deadline=100.0)
            for i, (p, d) in enumerate(tasks)
        ),
        label=label,
    )


#: Two-chain jobs whose chains finish at the same instant, listed with the
#: label of the chain each policy must pick.  The first pair also ties on
#: area (utilization), so PAPER falls through to the prefix key; its
#: second chain defers resources (prefix areas 5, 20 against 15, 20).
#: In the second pair a blocker holds one processor over [0, 3): the
#: 8-wide task waits for it and ties the 4-then-1 chain at t=5, with a
#: prefix key (16,) that is a strict prefix of (16, 17) -- PREFIX takes
#: the shorter key, PAPER the larger area.
_PREFIX_TIES = (
    (
        None,
        (_chain((3, 5.0), (1, 5.0), label="heavy"), _chain((1, 5.0), (3, 5.0), label="light")),
        {TieBreakPolicy.PAPER: "light", TieBreakPolicy.PREFIX: "light"},
    ),
    (
        _chain((1, 3.0), label="blocker"),
        (_chain((4, 4.0), (1, 1.0), label="long"), _chain((8, 2.0), label="short")),
        {TieBreakPolicy.PAPER: "long", TieBreakPolicy.PREFIX: "short"},
    ),
)


@needs_compiled
@pytest.mark.parametrize("policy", (TieBreakPolicy.PAPER, TieBreakPolicy.PREFIX))
@pytest.mark.parametrize("case", range(len(_PREFIX_TIES)))
@pytest.mark.parametrize("order", ("as-listed", "reversed"))
def test_prefix_key_decides_exact_ties_in_c_and_reference(policy, case, order):
    """The paper's third criterion, smaller resources over a task prefix,
    picks the chain when finish and utilization tie exactly -- in the C
    loop as in the reference, whichever chain comes first."""
    blocker, chains, want = _PREFIX_TIES[case]
    if order == "reversed":
        chains = chains[::-1]
    jobs = [Job(chains=(blocker,), release=0.0)] if blocker is not None else []
    jobs.append(Job(chains=chains, release=0.0))
    picked = {}
    with kernels.use("compiled"):
        for backend in ("auto", "scalar"):
            arbitrator = QoSArbitrator(8, policy=policy, backend=backend)
            decision = [arbitrator.submit(job) for job in jobs][-1]
            snap = arbitrator.perf_snapshot()
            assert snap["kernel_backend"] == "compiled"
            assert snap["batch_fallbacks"] == 0
            picked[backend] = (decision, _state(arbitrator))
    assert picked["auto"] == picked["scalar"]
    decision = picked["auto"][0]
    assert decision.placement.chain.label == want[policy]
    assert decision.placement.finish == (10.0 if blocker is None else 5.0)


#: Fits that end exactly on the deadline while a pruning filter's sum
#: rounds past the chain: the area filter's window (``0.7 + 0.1 - 0.7`` is
#: below 0.1) and the quick check's relative sum (``1.1 + 0.35`` is above
#: 1.45, yet ``1.0 + 1.1 + 0.35 == 1.0 + 1.45``).
_TIGHT_FITS = {
    "area": (0.7, ((0.1, 0.1),)),
    "relative-sum": (1.0, ((1.1, math.inf), (0.35, 1.45))),
}


@pytest.mark.parametrize("case", sorted(_TIGHT_FITS))
def test_exactly_tight_fit_is_admitted_by_both_deciders(case):
    release, tasks = _TIGHT_FITS[case]
    chain = TaskChain(
        tuple(
            TaskSpec(f"t{i}", ProcessorTimeRequest(1, duration), deadline=deadline)
            for i, (duration, deadline) in enumerate(tasks)
        )
    )
    job = Job(chains=(chain,), release=release)
    for mode in ("python", "compiled") if _have_compiled() else ("python",):
        with kernels.use(mode):
            for backend in ("auto", "scalar"):
                arbitrator = QoSArbitrator(1, backend=backend)
                decision = arbitrator.submit(job)
                assert decision.admitted, (mode, backend)
                assert decision.placement.finish == release + tasks[-1][1]
                assert arbitrator.perf_snapshot()["batch_fallbacks"] == 0


@needs_compiled
def test_float32_times_account_identically_in_c_and_reference():
    """NumPy ``float32`` times enter the model as binary64: the C loop and
    the reference book the same finish and the same committed area."""
    np = pytest.importorskip("numpy")
    f32 = np.float32
    chain = TaskChain(
        (
            TaskSpec("a", ProcessorTimeRequest(3, f32(0.1)), deadline=f32(7.3)),
            TaskSpec("b", ProcessorTimeRequest(5, f32(1.7)), deadline=f32(9.9)),
        )
    )
    jobs = [Job(chains=(chain,), release=f32(k * 0.3), job_id=k) for k in range(6)]
    assert type(chain.tasks[0].duration) is float
    assert type(jobs[1].release) is float
    runs = {}
    with kernels.use("compiled"):
        for backend in ("auto", "scalar"):
            arbitrator = QoSArbitrator(8, backend=backend)
            decisions = [arbitrator.submit(job) for job in jobs]
            assert arbitrator.perf_snapshot()["batch_fallbacks"] == 0
            runs[backend] = (
                [d.placement.finish for d in decisions if d.admitted],
                arbitrator.schedule.committed_area,
                _state(arbitrator),
            )
    assert runs["auto"][0] == runs["scalar"][0]
    assert runs["auto"][1] == runs["scalar"][1]
    assert runs["auto"] == runs["scalar"]
    assert type(runs["auto"][1]) is float
