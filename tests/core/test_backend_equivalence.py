"""Property tests: the two profile scans are bit-equivalent.

The scalar walk is the reference implementation; the kernel layer is the
performance back-end and must return *identical* results — not merely
close ones — under every interleaving of mutation and query the
scheduler can produce: reserve / release / compact on the profile, and
the Schedule commit / rollback cycle on top.  Bit-equality is what lets
the benchmarks checksum admission decisions across back-ends
(``benchmarks/bench_fragmentation.py``) and what lets ``"auto"`` choose
between the two by size alone.

Every example draws which decision kernel serves ``"kernel"`` (compiled
``.so`` or the pure-NumPy fallback), so both implementations are pinned
to the scalar reference whatever ``REPRO_KERNEL`` says.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.first_fit import earliest_fit
from repro.core.greedy import GreedyScheduler
from repro.core.profile import AvailabilityProfile
from repro.core.schedule import Schedule
from tests.conftest import nice_durations, nice_times, task_chains
from tests.core.test_admit_batch import KERNEL_MODES

#: The concrete back-ends ("auto" only delegates to these).
BACKENDS = ("scalar", "kernel")

kernel_modes = st.sampled_from(KERNEL_MODES)


@st.composite
def profile_op_streams(draw, capacity: int, max_ops: int = 20):
    """An applicable interleaving of reserve / release / compact ops.

    A shadow profile is simulated alongside so every reserve fits and
    every release undoes a still-intact reservation.  Compaction forgets
    history, so reservations starting before the compact cut become
    unreleasable and are dropped from the release pool.
    """
    shadow = AvailabilityProfile(capacity)
    live: list[tuple[float, float, int]] = []
    floor = 0.0  # latest compact cut
    ops: list[tuple[str, float, float, int]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        kind = draw(
            st.sampled_from(("reserve", "reserve", "reserve", "release", "compact"))
        )
        if kind == "release" and live:
            idx = draw(st.integers(min_value=0, max_value=len(live) - 1))
            t0, t1, procs = live.pop(idx)
            shadow.release(t0, t1, procs)
            ops.append(("release", t0, t1, procs))
        elif kind == "compact":
            before = floor + draw(nice_durations)
            shadow.compact(before)
            floor = max(floor, before)
            live = [op for op in live if op[0] >= floor]
            ops.append(("compact", before, 0.0, 0))
        else:
            t0 = floor + draw(nice_times)
            t1 = t0 + draw(nice_durations)
            avail = shadow.min_available(t0, t1)
            if avail == 0:
                continue
            procs = draw(st.integers(min_value=1, max_value=avail))
            shadow.reserve(t0, t1, procs)
            live.append((t0, t1, procs))
            ops.append(("reserve", t0, t1, procs))
    return ops


@given(st.data(), kernel_modes)
def test_mutation_interleaving_bit_equivalence(data, kmode):
    """Same op stream -> bit-identical state and query answers everywhere."""
    with kernels.use(kmode):
        _check_mutation_interleaving(data)


def _check_mutation_interleaving(data):
    capacity = data.draw(st.integers(min_value=1, max_value=8))
    ops = data.draw(profile_op_streams(capacity))
    profiles = {b: AvailabilityProfile(capacity, backend=b) for b in BACKENDS}
    ref = profiles["scalar"]
    for kind, a, b, c in ops:
        for profile in profiles.values():
            if kind == "reserve":
                profile.reserve(a, b, c)
            elif kind == "release":
                profile.release(a, b, c)
            else:
                profile.compact(a)
        for profile in profiles.values():
            assert profile._times == ref._times
            assert profile._avail == ref._avail
        # Paired queries after every mutation: this is what drives the
        # incrementally spliced mirrors through every window shape.
        q0 = max(ref._times[0], data.draw(nice_times))
        dur = data.draw(nice_durations)
        procs = data.draw(st.integers(min_value=1, max_value=capacity))
        mins = {n: p.min_available(q0, q0 + dur) for n, p in profiles.items()}
        areas = {n: p.free_area(q0, q0 + dur) for n, p in profiles.items()}
        fits = {
            n: earliest_fit(p, procs, dur, q0, q0 + 4 * dur + 64.0)
            for n, p in profiles.items()
        }
        assert len(set(mins.values())) == 1, mins
        assert len(set(areas.values())) == 1, areas  # bit-equal, not approx
        assert len(set(fits.values())) == 1, fits
    for profile in profiles.values():
        profile.check_invariants()  # cross-checks the mirrors


@given(st.data(), kernel_modes)
def test_schedule_commit_rollback_equivalence(data, kmode):
    """Place / commit / rollback through the scheduler stays in lock-step."""
    with kernels.use(kmode):
        _check_commit_rollback(data)


def _check_commit_rollback(data):
    capacity = 8
    schedules = {b: Schedule(capacity, backend=b) for b in BACKENDS}
    schedulers = {b: GreedyScheduler(s) for b, s in schedules.items()}
    committed: dict[str, list] = {b: [] for b in BACKENDS}
    ref = schedules["scalar"]
    for _ in range(data.draw(st.integers(min_value=2, max_value=10))):
        if committed["scalar"] and data.draw(st.booleans()):
            idx = data.draw(
                st.integers(min_value=0, max_value=len(committed["scalar"]) - 1)
            )
            for b in BACKENDS:
                schedules[b].rollback(committed[b].pop(idx))
        else:
            chain = data.draw(task_chains(max_procs=capacity))
            release = data.draw(nice_times)
            cps = {
                b: sched.place_chain(chain, release)
                for b, sched in schedulers.items()
            }
            shapes = {
                b: None
                if cp is None
                else tuple((p.start, p.end, p.processors) for p in cp)
                for b, cp in cps.items()
            }
            assert len(set(shapes.values())) == 1, shapes
            if cps["scalar"] is None:
                continue
            for b in BACKENDS:
                schedules[b].commit(cps[b])
                committed[b].append(cps[b])
        for b in BACKENDS:
            assert schedules[b].profile._times == ref.profile._times
            assert schedules[b].profile._avail == ref.profile._avail
            assert schedules[b].committed_area == ref.committed_area
            assert schedules[b].utilization() == ref.utilization()
    for b in BACKENDS:
        schedules[b].profile.check_invariants()
        schedules[b].check_consistency()
