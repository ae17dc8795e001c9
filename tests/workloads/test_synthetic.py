"""Unit tests for the Figure-4 synthetic task system."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.synthetic import SyntheticParams


class TestValidation:
    def test_paper_defaults(self):
        p = SyntheticParams()
        assert p.x == 16
        assert p.t == 25.0

    def test_alpha_must_give_integer_width(self):
        with pytest.raises(WorkloadError):
            SyntheticParams(x=16, alpha=0.3)

    def test_alpha_bounds(self):
        with pytest.raises(WorkloadError):
            SyntheticParams(alpha=0.0)
        with pytest.raises(WorkloadError):
            SyntheticParams(alpha=1.5)

    def test_laxity_bounds(self):
        with pytest.raises(WorkloadError):
            SyntheticParams(laxity=1.0)
        with pytest.raises(WorkloadError):
            SyntheticParams(laxity=-0.1)

    def test_positive_x_t(self):
        with pytest.raises(WorkloadError):
            SyntheticParams(x=0)
        with pytest.raises(WorkloadError):
            SyntheticParams(t=0.0)

    def test_concurrency_factor(self):
        with pytest.raises(WorkloadError):
            SyntheticParams(concurrency_factor=0.5)


class TestDerived:
    def test_flat_shape(self):
        p = SyntheticParams(x=16, t=25.0, alpha=0.25)
        assert p.flat_width == 4
        assert p.flat_duration == 100.0

    def test_equal_task_areas(self):
        p = SyntheticParams(x=16, t=25.0, alpha=0.25)
        assert p.flat_width * p.flat_duration == pytest.approx(p.task_area)
        assert p.job_area == pytest.approx(2 * p.task_area)

    def test_deadline_formulas(self):
        # d1 = max(t, t/alpha)/(1-laxity); d2 = (t + t/alpha)/(1-laxity)
        p = SyntheticParams(x=4, t=10.0, alpha=0.5, laxity=0.5)
        assert p.d1 == pytest.approx(40.0)
        assert p.d2 == pytest.approx(60.0)

    def test_zero_laxity(self):
        p = SyntheticParams(x=4, t=10.0, alpha=0.5, laxity=0.0)
        assert p.d1 == pytest.approx(20.0)
        assert p.d2 == pytest.approx(30.0)

    def test_alpha_one_degenerate(self):
        p = SyntheticParams(x=4, t=10.0, alpha=1.0, laxity=0.0)
        assert p.flat_width == 4
        assert p.flat_duration == 10.0
        assert p.d1 == pytest.approx(10.0)

    def test_offered_load(self):
        p = SyntheticParams(x=16, t=25.0, alpha=0.5)
        assert p.offered_load(16, 50.0) == pytest.approx(1.0)
        with pytest.raises(WorkloadError):
            p.offered_load(0, 50.0)


class TestJobs:
    def test_shape1_leads_tall(self):
        p = SyntheticParams(x=4, t=10.0, alpha=0.5)
        c = p.shape1_chain()
        assert c[0].processors == 4
        assert c[1].processors == 2
        assert c.label == "shape1"

    def test_shape2_transposed(self):
        p = SyntheticParams(x=4, t=10.0, alpha=0.5)
        c = p.shape2_chain()
        assert c[0].processors == 2
        assert c[1].processors == 4

    def test_deadlines_attached(self):
        p = SyntheticParams(x=4, t=10.0, alpha=0.5, laxity=0.5)
        for c in (p.shape1_chain(), p.shape2_chain()):
            assert c[0].deadline == pytest.approx(p.d1)
            assert c[1].deadline == pytest.approx(p.d2)

    def test_tunable_job(self):
        p = SyntheticParams(x=4, t=10.0, alpha=0.5)
        job = p.tunable_job(release=5.0)
        assert job.tunable
        assert job.release == 5.0
        assert {c.label for c in job} == {"shape1", "shape2"}

    def test_rigid_jobs(self):
        p = SyntheticParams(x=4, t=10.0, alpha=0.5)
        assert p.rigid_job(1).chains[0].label == "shape1"
        assert p.rigid_job(2).chains[0].label == "shape2"
        with pytest.raises(WorkloadError):
            p.rigid_job(3)

    def test_or_graph_matches_chains(self):
        """The tunable job's chains are the two paths of its one-stage OR
        graph, each carrying the ``shape`` it binds."""
        p = SyntheticParams(x=4, t=10.0, alpha=0.5)
        chains = p.tunable_job().chains
        assert chains == (p.shape1_chain(), p.shape2_chain())
        assert [c.params["shape"] for c in chains] == [1, 2]

    def test_concurrency_factor_widens(self):
        p = SyntheticParams(x=4, t=10.0, alpha=0.5, concurrency_factor=2.0)
        assert p.shape1_chain()[0].max_concurrency == 8

    def test_with_helpers(self):
        p = SyntheticParams(x=4, t=10.0, alpha=0.5)
        assert p.with_laxity(0.9).laxity == 0.9
        assert p.with_alpha(0.25).alpha == 0.25

    @given(st.sampled_from([1, 2, 4, 8, 16]), st.floats(0.0, 0.9))
    def test_chain_areas_always_equal(self, k, laxity):
        p = SyntheticParams(x=16, t=25.0, alpha=k / 16, laxity=round(laxity, 2))
        assert p.shape1_chain().total_area == pytest.approx(
            p.shape2_chain().total_area
        )
