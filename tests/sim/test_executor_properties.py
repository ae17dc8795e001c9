"""Property tests: conservation invariants of the best-effort executor."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.arrivals import PoissonArrivals
from repro.sim.executor import EDFExecutor
from repro.sim.rng import RandomStreams
from repro.workloads.synthetic import SyntheticParams


@given(
    seed=st.integers(0, 50),
    interval=st.sampled_from([3.0, 8.0, 20.0]),
    capacity=st.sampled_from([4, 8]),
)
def test_conservation_invariants(seed, interval, capacity):
    params = SyntheticParams(x=4, t=5.0, alpha=0.5, laxity=0.5)
    n = 60
    arrivals = PoissonArrivals(interval, RandomStreams(seed)).times(n)
    executor = EDFExecutor(capacity)
    metrics = executor.run(params.tunable_job(t) for t in arrivals)

    # Every offered job is accounted for exactly once.
    assert metrics.offered == n
    assert metrics.on_time + metrics.late == n

    # Work accounting: wasted work is a subset of busy work; utilization
    # bounds hold; goodput never exceeds raw utilization.
    assert 0.0 <= metrics.wasted_area <= metrics.busy_area + 1e-9
    assert 0.0 <= metrics.utilization <= 1.0 + 1e-9
    assert metrics.goodput_utilization <= metrics.utilization + 1e-12

    # Every job runs its first chain, so the work that is not wasted is
    # exactly the on-time jobs' first-chain areas.
    first = params.tunable_job(0.0).chains[0].total_area
    assert metrics.busy_area - metrics.wasted_area == pytest.approx(
        metrics.on_time * first
    )

