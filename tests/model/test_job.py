"""Unit tests for Job."""

import math

import pytest

from repro.core.resources import TIME_LIMIT, ProcessorTimeRequest
from repro.errors import InvalidJobError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec


def chain(label="c", quality=1.0):
    return TaskChain(
        (
            TaskSpec(
                "t", ProcessorTimeRequest(2, 5.0), deadline=20.0, quality=quality
            ),
        ),
        label=label,
    )


class TestConstruction:
    def test_rigid(self):
        job = Job.rigid(chain(), release=3.0, name="n")
        assert not job.tunable
        assert len(job) == 1
        assert job.release == 3.0
        assert job.name == "n"

    def test_tunable(self):
        job = Job.tunable_of([chain("a"), chain("b")])
        assert job.tunable
        assert [c.label for c in job] == ["a", "b"]

    def test_chains_given_directly(self):
        a, b = chain("A"), chain("B")
        job = Job(chains=(a, b))
        assert job.tunable
        assert job.chains == (a, b)

    def test_no_chains(self):
        with pytest.raises(InvalidJobError):
            Job(chains=())

    def test_bad_chain_type(self):
        with pytest.raises(InvalidJobError):
            Job(chains=("x",))  # type: ignore[arg-type]

    def test_nonfinite_release(self):
        with pytest.raises(InvalidJobError):
            Job.rigid(chain(), release=math.inf)

    @pytest.mark.parametrize("release", [math.nan, -math.inf, TIME_LIMIT, -TIME_LIMIT])
    def test_release_outside_the_time_range(self, release):
        with pytest.raises(InvalidJobError):
            Job.rigid(chain(), release=release)

    def test_unique_ids(self):
        a = Job.rigid(chain())
        b = Job.rigid(chain())
        assert a.job_id != b.job_id


class TestMethods:
    def test_absolute_deadline(self):
        job = Job.rigid(chain(), release=10.0)
        assert job.absolute_deadline(job.chains[0]) == 30.0

    def test_best_quality(self):
        job = Job.tunable_of([chain("a", 0.5), chain("b", 0.9)])
        assert job.best_quality() == pytest.approx(0.9)

    def test_released_at_keeps_id(self):
        job = Job.rigid(chain())
        moved = job.released_at(99.0)
        assert moved.job_id == job.job_id
        assert moved.release == 99.0

    def test_instantiate_fresh_id(self):
        template = Job.rigid(chain())
        a = template.instantiate(1.0)
        b = template.instantiate(2.0)
        assert a.job_id != b.job_id != template.job_id
        assert a.release == 1.0
        assert b.chains is template.chains

    def test_instantiate_explicit_id(self):
        job = Job.rigid(chain()).instantiate(0.0, job_id=12345)
        assert job.job_id == 12345

    def test_describe(self):
        text = Job.tunable_of([chain("a"), chain("b")], name="demo").describe()
        assert "demo" in text
        assert text.count("->") == 0  # single-task chains have no arrow
        assert "a:" in text
