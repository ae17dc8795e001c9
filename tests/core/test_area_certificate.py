"""The area filter's certified backward sum (``area_reject`` in
``_kernels.c``).

While the free-area prefix is stale, the C filter sums the window's free
area backwards from its end and passes a chain as soon as that partial
sum proves the prefix difference covers the chain's area; otherwise it
re-sums the prefix and compares as ``GreedyScheduler._area_reject``
does.  The black-box tests hold the C loop to the reference where
rounding decides the verdict; the white-box ones read the certificate's
state in ``profile._ctx.c`` (``prefix_valid``, ``area_spent``) and pin
each term of the proof and the re-sum budget.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.model.job import Job
from tests.core.test_admit_batch import _campaign, _one_task, _state, needs_compiled

pytestmark = needs_compiled

#: 2**-53, the unit roundoff ``U`` of ``_kernels.c``.
_U = 2.0**-53


def _rebuilds(arbitrator: QoSArbitrator) -> int:
    return arbitrator.perf_snapshot()["profile_prefix_rebuilds"]


def _error_bound(n: int, capacity: int, t1: float, origin: float) -> float:
    """``E`` of ``area_reject`` over ``n`` live segments, with the C
    loop's operations in its order."""
    g = float(n + 4) * _U
    return 2.0 * (g / (1.0 - g)) * float(capacity) * (t1 - origin)


def _tight_chains(free: float, width: int, deadline: float):
    """One-task chains ``width`` wide whose areas straddle ``free`` by a few
    ulps and by ``AREA_EPS`` (1e-6): where the verdict turns on rounding.
    ``width`` is a power of two, so ``width * (area / width)`` is the area
    exactly."""
    areas = {free, free + 1e-6}
    for base in (free, free + 1e-6):
        down = up = base
        for _ in range(3):
            down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
            areas |= {down, up}
    return [_one_task(width, area / width, deadline) for area in sorted(areas)]


@pytest.mark.parametrize(
    "capacity, compact", ((4096, False), (4096, True), (3000, False), (64, True))
)
def test_a_large_magnitude_flood_agrees_with_the_reference(capacity, compact):
    """Releases near 5e6 and up to 4,096 processors: uncompacted, the
    prefix at the first release is 2e10 and one ulp of it micro-units.
    Commits keep the prefix stale, and between them come chains whose
    area is the window's free area to within a few ulps or ``AREA_EPS``.
    Every decision and ``chains_area_rejected`` match the reference."""
    rng = random.Random(capacity)
    width = 1 << (capacity.bit_length() - 1)  # the widest power of two
    with kernels.use("compiled"):
        auto = QoSArbitrator(capacity, compact=compact)
        ref = QoSArbitrator(capacity, compact=compact, backend="scalar")
        release = 5e6 + rng.random()
        for k in range(120):
            release += rng.choice((0.0, rng.uniform(0.0, 3.0)))
            background = Job(
                chains=_one_task(
                    rng.randint(1, capacity), rng.uniform(0.5, 40.0),
                    rng.uniform(50.0, 4000.0),
                ),
                release=release,
            )
            assert auto.submit(background) == ref.submit(background)
            if k % 3:
                continue
            if compact:
                ref.schedule.compact(release)  # what the next submit does first
            deadline = rng.uniform(5.0, 3000.0)
            profile = ref.schedule.profile
            free = profile.free_area(
                max(release, profile.origin), release + deadline
            )
            for chains in _tight_chains(free, width, deadline):
                job = Job(chains=chains, release=release)
                assert auto.submit(job) == ref.submit(job)
        mine, theirs = auto.perf_snapshot(), ref.perf_snapshot()
        assert mine["batch_fallbacks"] == 0
        assert mine["chains_area_rejected"] == theirs["chains_area_rejected"] > 0
        assert mine["chains_probed"] == theirs["chains_probed"]
        assert mine["commits"] == theirs["commits"]
        assert _state(auto) == _state(ref)


def _stale_over_a_free_tail(capacity: int) -> tuple[QoSArbitrator, float]:
    """An arbitrator whose profile is free from the returned time on and
    whose next C call re-uploads it: a stale prefix, nothing spent."""
    arbitrator = QoSArbitrator(capacity, compact=False)
    for k in range(40):
        arbitrator.submit(
            Job(chains=_one_task(capacity // 2 + k % 3, 1.0 + k % 5, 500.0),
                release=float(k))
        )
    profile = arbitrator.schedule.profile
    profile.reserve(0.0, 0.5, 1)
    return arbitrator, profile.breakpoints[-1]


@pytest.mark.parametrize("case", ("certified", "E", "factor"))
def test_the_certificate_keeps_its_error_bound_and_its_factor(case):
    """A window inside the free tail: the backward sum is one term,
    ``S = K * (t1 - t0)``, exact.  The certificate passes a chain of area
    ``T`` iff ``fl(S * (1 - 5u)) >= fl(T + E)``.  ``T = S / 2`` is
    certified; ``T = fl(S * (1 - 5u))`` passes only without ``E``, and a
    ``T`` with ``fl(T + E) == S`` only without the ``(1 - 5u)`` factor: both
    re-sum the prefix instead."""
    capacity = 4096
    with kernels.use("compiled"):
        arbitrator, tail = _stale_over_a_free_tail(capacity)
        profile = arbitrator.schedule.profile
        c = profile._ctx.c  # noqa: SLF001
        release, deadline = tail + 10.0, 250.0
        t1 = release + deadline
        s = float(capacity) * (t1 - release)
        e = _error_bound(len(profile), capacity, t1, profile.origin)
        if case == "certified":
            area = s / 2
        elif case == "E":
            area = s * (1.0 - 5 * _U)
            assert area + e > area  # E is more than rounding away
        else:
            area = s - e
            while area + e > s:
                area = math.nextafter(area, 0.0)
            while math.nextafter(area, math.inf) + e <= s:
                area = math.nextafter(area, math.inf)
            assert area + e == s > s * (1.0 - 5 * _U)
        rebuilds = _rebuilds(arbitrator)
        decision = arbitrator.submit(
            Job(chains=_one_task(capacity, area / capacity, deadline),
                release=release)
        )
        assert decision.admitted  # the filter passed either way
        if case == "certified":
            assert (_rebuilds(arbitrator), c.area_spent) == (rebuilds, 1)
        else:
            assert (_rebuilds(arbitrator), c.area_spent) == (rebuilds + 1, 0)


def test_certified_queries_end_in_a_resum_once_the_budget_is_spent():
    """Chains that pass the filter on two backward steps and then
    fail first fit (a 4-wide task longer than any 4-free run of the comb)
    commit nothing, so the prefix stays stale.  The steps they spend
    (``area_spent``) never exceed the re-sum they stand in for, ``n -
    prefix_from``; once the next query would, the filter re-sums
    (``prefix_valid`` back to 1, ``area_spent`` 0).  A Python-side
    mutation's re-upload starts the count afresh."""
    with kernels.use("compiled"):
        arbitrator = QoSArbitrator(4, compact=False)
        profile = arbitrator.schedule.profile
        for k in range(150):  # one processor busy in every other unit
            profile.reserve(2.0 * k, 2.0 * k + 1.0, 1)
        query = Job(chains=_one_task(4, 1.2, 59.5), release=0.0)
        assert not arbitrator.submit(query).admitted
        c = profile._ctx.c  # noqa: SLF001
        assert (c.prefix_valid, c.prefix_from) == (0, 0) and c.area_spent > 0
        certified = 1
        while c.prefix_valid == 0:
            assert c.area_spent <= c.n - c.prefix_from
            spent = c.area_spent
            assert not arbitrator.submit(query).admitted
            certified += c.prefix_valid == 0
            assert c.prefix_valid or c.area_spent > spent
            assert certified < c.n
        assert (c.area_spent, _rebuilds(arbitrator)) == (0, 1)
        assert certified >= c.n // 3  # about n / 2 queries of 2 steps
        # A re-upload (stale from index 0), away from both ends of the window.
        profile.reserve(30.0, 30.25, 1)
        assert not arbitrator.submit(query).admitted
        step = c.area_spent
        assert c.prefix_valid == 0 and step > 0
        assert not arbitrator.submit(query).admitted
        assert (c.prefix_valid, c.area_spent) == (0, 2 * step)
        profile.reserve(30.5, 30.75, 1)
        assert not arbitrator.submit(query).admitted
        assert (c.prefix_valid, c.area_spent) == (0, step)


def test_a_window_ending_on_a_breakpoint_sums_no_zero_width_term():
    """On the comb of the test above, a window ending on the breakpoint 60
    starts its backward sum at the segment that ends there, as one ending
    at 59.5 starts at the segment holding it: two steps each.  Starting at
    the segment that begins at 60 adds a zero-width term, counts a third
    step and loosens the ``(1 - (m + 4) u)`` factor."""
    steps = {}
    with kernels.use("compiled"):
        for deadline in (59.5, 60.0):
            arbitrator = QoSArbitrator(4, compact=False)
            profile = arbitrator.schedule.profile
            for k in range(150):
                profile.reserve(2.0 * k, 2.0 * k + 1.0, 1)
            query = Job(chains=_one_task(4, 1.2, deadline), release=0.0)
            assert not arbitrator.submit(query).admitted
            c = profile._ctx.c  # noqa: SLF001
            assert c.prefix_valid == 0
            steps[deadline] = c.area_spent
    assert steps == {59.5: 2, 60.0: 2}


def test_a_deep_burst_resums_far_less_than_once_per_commit():
    """A backlog-shaped burst (a profile some 900 segments deep, nearly
    every job committed): summed backwards the filter re-sums about once
    per 90 commits, where summing forwards from the window's start would
    re-sum about once per two, and the parent loop re-summed on every
    job's filter after a commit."""
    jobs = _campaign(random.Random(5), 3000)
    with kernels.use("compiled"):
        arbitrator = QoSArbitrator(64)
        for at in range(0, len(jobs), 256):
            arbitrator.admit_batch(jobs[at : at + 256])
        snap = arbitrator.perf_snapshot()
    assert snap["profile_segments"] > 800
    assert snap["commits"] > 2900
    assert 0 < 20 * snap["profile_prefix_rebuilds"] < snap["commits"]
