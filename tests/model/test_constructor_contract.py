"""The constructor contract of the four model records, as one table.

``ProcessorTimeRequest``, ``TaskSpec``, ``TaskChain`` and ``Job`` write
their own ``__init__`` and store through their slots
(``resources.slot_setters``).  What they refuse, what they store and how
they round-trip is pinned here row by row: every row holds for the
generated-``__init__``-plus-``__post_init__`` records they replaced,
except the ``max_concurrency`` type rows, which are new refusals.
"""

from __future__ import annotations

import copy
import math
import pickle
import sys
from dataclasses import FrozenInstanceError, fields, replace
from types import MappingProxyType

import numpy as np
import pytest

from repro.core.resources import TIME_LIMIT, TIME_STEP, ProcessorTimeRequest
from repro.errors import InvalidChainError, InvalidJobError, InvalidTaskError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec

REQ = ProcessorTimeRequest(2, 5.0)
TASK = TaskSpec("t", REQ, deadline=20.0)
CHAIN = TaskChain((TASK,), label="c")


class _Float(float):
    """A float subclass: stored as a plain ``float``."""


def _limit_message(what, value, *, allow_inf=False):
    bound = "below" if allow_inf else "finite and below"
    return f"{what} must be {bound} 2**23 in magnitude, got {value!r}"


def _time_rows(prefix, build, what, error, *, allow_inf=False):
    values = [math.nan, -math.inf, TIME_LIMIT, -TIME_LIMIT, 2.0**60]
    if not allow_inf:
        values.append(math.inf)
    return [
        pytest.param(
            lambda v=v: build(v), error, _limit_message(what, v, allow_inf=allow_inf),
            id=f"{prefix}-{v!r}",
        )
        for v in values
    ]


REFUSED = [
    # ProcessorTimeRequest: the width
    pytest.param(lambda: ProcessorTimeRequest(True, 5.0), InvalidTaskError,
                 "processor count must be an int, got True", id="request-bool-width"),
    pytest.param(lambda: ProcessorTimeRequest(np.int64(2), 5.0), InvalidTaskError,
                 "processor count must be an int, got np.int64(2)",
                 id="request-numpy-width"),
    pytest.param(lambda: ProcessorTimeRequest(2.0, 5.0), InvalidTaskError,
                 "processor count must be an int, got 2.0", id="request-float-width"),
    pytest.param(lambda: ProcessorTimeRequest(0, 5.0), InvalidTaskError,
                 "processor count must be positive, got 0", id="request-zero-width"),
    pytest.param(lambda: ProcessorTimeRequest(-3, 5.0), InvalidTaskError,
                 "processor count must be positive, got -3", id="request-negative-width"),
    # ProcessorTimeRequest: the duration
    *_time_rows("request-duration", lambda v: ProcessorTimeRequest(2, v),
                "duration", InvalidTaskError),
    pytest.param(lambda: ProcessorTimeRequest(2, TIME_STEP / 2), InvalidTaskError,
                 f"duration must be at least 2**-30, got {TIME_STEP / 2!r}",
                 id="request-below-time-step"),
    pytest.param(lambda: ProcessorTimeRequest(2, 0.0), InvalidTaskError,
                 "duration must be at least 2**-30, got 0.0", id="request-zero-duration"),
    pytest.param(lambda: ProcessorTimeRequest(2, -1), InvalidTaskError,
                 "duration must be at least 2**-30, got -1",
                 id="request-negative-int-duration"),
    # The width is checked before the duration.
    pytest.param(lambda: ProcessorTimeRequest(0, math.nan), InvalidTaskError,
                 "processor count must be positive, got 0", id="request-width-first"),
    # TaskSpec
    pytest.param(lambda: TaskSpec("", REQ, deadline=20.0), InvalidTaskError,
                 "task name must be non-empty", id="task-empty-name"),
    *_time_rows("task-deadline", lambda v: TaskSpec("t", REQ, deadline=v),
                "task deadline", InvalidTaskError, allow_inf=True),
    pytest.param(lambda: TaskSpec("t", REQ, deadline=0.0), InvalidTaskError,
                 "task 't': deadline must be positive, got 0.0", id="task-zero-deadline"),
    pytest.param(lambda: TaskSpec("t", REQ, deadline=-1), InvalidTaskError,
                 "task 't': deadline must be positive, got -1",
                 id="task-negative-int-deadline"),
    pytest.param(lambda: TaskSpec("t", REQ, quality=math.nan), InvalidTaskError,
                 "task 't': quality must be >= 0, got nan", id="task-nan-quality"),
    pytest.param(lambda: TaskSpec("t", REQ, quality=-0.1), InvalidTaskError,
                 "task 't': quality must be >= 0, got -0.1", id="task-negative-quality"),
    pytest.param(lambda: TaskSpec("t", REQ, max_concurrency=1), InvalidTaskError,
                 "task 't': max_concurrency 1 below rigid width 2",
                 id="task-concurrency-below-width"),
    pytest.param(lambda: TaskSpec("t", REQ, max_concurrency=-4), InvalidTaskError,
                 "task 't': max_concurrency -4 below rigid width 2",
                 id="task-negative-concurrency"),
    # New: a degree of concurrency is an int, as a width is.
    pytest.param(lambda: TaskSpec("t", REQ, max_concurrency=3.5), InvalidTaskError,
                 "task 't': max_concurrency must be an int, got 3.5",
                 id="task-float-concurrency"),
    pytest.param(lambda: TaskSpec("t", REQ, max_concurrency=4.0), InvalidTaskError,
                 "task 't': max_concurrency must be an int, got 4.0",
                 id="task-integral-float-concurrency"),
    pytest.param(lambda: TaskSpec("t", ProcessorTimeRequest(1, 5.0), max_concurrency=True),
                 InvalidTaskError, "task 't': max_concurrency must be an int, got True",
                 id="task-bool-concurrency"),
    pytest.param(lambda: TaskSpec("t", REQ, max_concurrency=np.int64(4)), InvalidTaskError,
                 "task 't': max_concurrency must be an int, got np.int64(4)",
                 id="task-numpy-concurrency"),
    # The name is checked first, then the deadline, then the quality.
    pytest.param(lambda: TaskSpec("", REQ, deadline=math.nan, quality=-1.0),
                 InvalidTaskError, "task name must be non-empty", id="task-name-first"),
    pytest.param(lambda: TaskSpec("t", REQ, deadline=0.0, quality=-1.0),
                 InvalidTaskError, "task 't': deadline must be positive, got 0.0",
                 id="task-deadline-before-quality"),
    # TaskChain
    pytest.param(lambda: TaskChain(()), InvalidChainError,
                 "a task chain must contain at least one task", id="chain-empty"),
    pytest.param(lambda: TaskChain([]), InvalidChainError,
                 "a task chain must contain at least one task", id="chain-empty-list"),
    pytest.param(lambda: TaskChain(("x",)), InvalidChainError,
                 "chain element 'x' is not a TaskSpec", id="chain-str-element"),
    pytest.param(lambda: TaskChain((TASK, REQ)), InvalidChainError,
                 f"chain element {REQ!r} is not a TaskSpec", id="chain-request-element"),
    # Job
    pytest.param(lambda: Job(()), InvalidJobError,
                 "a job must offer at least one chain", id="job-empty"),
    pytest.param(lambda: Job(("x",)), InvalidJobError,
                 "job chain 'x' is not a TaskChain", id="job-str-chain"),
    pytest.param(lambda: Job((CHAIN, TASK)), InvalidJobError,
                 f"job chain {TASK!r} is not a TaskChain", id="job-task-as-chain"),
    *_time_rows("job-release", lambda v: Job((CHAIN,), release=v),
                "release", InvalidJobError),
    # The chains are checked before the release.
    pytest.param(lambda: Job((), release=math.nan), InvalidJobError,
                 "a job must offer at least one chain", id="job-chains-first"),
]


@pytest.mark.parametrize(("build", "error", "message"), REFUSED)
def test_a_refused_input_raises_its_class_and_message(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


_MAPPING = MappingProxyType({"k": 1})

ACCEPTED = [
    # (build, field, stored value, stored type)
    pytest.param(lambda: ProcessorTimeRequest(2, 5), "duration", 5.0, float,
                 id="request-int-duration"),
    pytest.param(lambda: ProcessorTimeRequest(2, np.float64(2.5)), "duration", 2.5, float,
                 id="request-numpy-duration"),
    pytest.param(lambda: ProcessorTimeRequest(2, np.float32(0.1)), "duration",
                 float(np.float32(0.1)), float, id="request-float32-duration"),
    pytest.param(lambda: ProcessorTimeRequest(2, _Float(2.5)), "duration", 2.5, float,
                 id="request-float-subclass-duration"),
    pytest.param(lambda: ProcessorTimeRequest(2, TIME_STEP), "duration", TIME_STEP, float,
                 id="request-one-time-step"),
    pytest.param(lambda: ProcessorTimeRequest(2, math.nextafter(TIME_LIMIT, 0)), "duration",
                 math.nextafter(TIME_LIMIT, 0), float, id="request-largest-duration"),
    pytest.param(lambda: ProcessorTimeRequest(processors=7, duration=1.0), "processors",
                 7, int, id="request-keywords"),
    pytest.param(lambda: TaskSpec("t", REQ, deadline=20), "deadline", 20.0, float,
                 id="task-int-deadline"),
    pytest.param(lambda: TaskSpec("t", REQ, deadline=np.float64(7.5)), "deadline", 7.5,
                 float, id="task-numpy-deadline"),
    pytest.param(lambda: TaskSpec("t", REQ, deadline=_Float(7.5)), "deadline", 7.5,
                 float, id="task-float-subclass-deadline"),
    pytest.param(lambda: TaskSpec("t", REQ), "deadline", math.inf, float,
                 id="task-default-deadline"),
    pytest.param(lambda: TaskSpec("t", REQ, deadline=math.nextafter(TIME_LIMIT, 0)),
                 "deadline", math.nextafter(TIME_LIMIT, 0), float,
                 id="task-largest-deadline"),
    pytest.param(lambda: TaskSpec("t", REQ, deadline=TIME_STEP / 2), "deadline",
                 TIME_STEP / 2, float, id="task-tiny-deadline"),
    pytest.param(lambda: TaskSpec("t", REQ), "max_concurrency", 2, int,
                 id="task-default-concurrency"),
    pytest.param(lambda: TaskSpec("t", REQ, max_concurrency=0), "max_concurrency", 2, int,
                 id="task-zero-concurrency"),
    pytest.param(lambda: TaskSpec("t", REQ, max_concurrency=9), "max_concurrency", 9, int,
                 id="task-wider-concurrency"),
    pytest.param(lambda: TaskSpec("t", REQ, quality=0.5), "quality", 0.5, float,
                 id="task-quality"),
    pytest.param(lambda: TaskSpec("t", REQ, quality=0), "quality", 0, int,
                 id="task-int-quality-kept"),
    pytest.param(lambda: TaskSpec("t", REQ, 20.0, 0.5, 4), "max_concurrency", 4, int,
                 id="task-positional"),
    pytest.param(lambda: TaskChain([TASK, TASK]), "tasks", (TASK, TASK), tuple,
                 id="chain-list-tasks"),
    pytest.param(lambda: TaskChain(t for t in (TASK,)), "tasks", (TASK,), tuple,
                 id="chain-generator-tasks"),
    pytest.param(lambda: TaskChain((TASK,)), "label", "", str, id="chain-default-label"),
    pytest.param(lambda: TaskChain((TASK,)), "params", None, type(None),
                 id="chain-no-params"),
    pytest.param(lambda: TaskChain((TASK,), params=_MAPPING), "params", {"k": 1}, dict,
                 id="chain-mapping-params"),
    pytest.param(lambda: Job([CHAIN, CHAIN]), "chains", (CHAIN, CHAIN), tuple,
                 id="job-list-chains"),
    pytest.param(lambda: Job((CHAIN,), release=np.float64(3.5)), "release", 3.5, float,
                 id="job-numpy-release"),
    pytest.param(lambda: Job((CHAIN,), release=3), "release", 3.0, float,
                 id="job-int-release"),
    pytest.param(lambda: Job((CHAIN,), release=_Float(3.5)), "release", 3.5, float,
                 id="job-float-subclass-release"),
    pytest.param(lambda: Job((CHAIN,), release=-math.nextafter(TIME_LIMIT, 0)), "release",
                 -math.nextafter(TIME_LIMIT, 0), float, id="job-earliest-release"),
    pytest.param(lambda: Job((CHAIN,)), "release", 0.0, float, id="job-default-release"),
    pytest.param(lambda: Job((CHAIN,), job_id=None), "job_id", None, type(None),
                 id="job-explicit-none-id"),
    pytest.param(lambda: Job((CHAIN,), 1.0, 41, "n"), "job_id", 41, int,
                 id="job-positional"),
    pytest.param(lambda: Job((CHAIN,)), "name", "", str, id="job-default-name"),
]


@pytest.mark.parametrize(("build", "name", "value", "kind"), ACCEPTED)
def test_an_accepted_input_is_stored_with_its_type(build, name, value, kind):
    stored = getattr(build(), name)
    assert type(stored) is kind
    assert stored == value


def test_a_chain_copies_its_params():
    src = {"k": 1}
    chain = TaskChain((TASK,), params=src)
    assert chain.params == src and chain.params is not src
    assert TaskChain((TASK,), params=_MAPPING).params is not _MAPPING


def test_a_tuple_of_tasks_or_chains_is_kept_as_is():
    tasks = (TASK,)
    chains = (CHAIN,)
    assert TaskChain(tasks).tasks is tasks
    assert Job(chains).chains is chains


def test_a_float_time_is_stored_as_given():
    duration, deadline, release = 2.5, 7.5, 3.5
    assert ProcessorTimeRequest(2, duration).duration is duration
    assert TaskSpec("t", REQ, deadline=deadline).deadline is deadline
    assert Job((CHAIN,), release=release).release is release


# ---------------------------------------------------------------------------
# Auto ids
# ---------------------------------------------------------------------------


def test_a_refused_job_still_consumes_an_auto_id():
    """The id is drawn before the arguments are checked, as the generated
    ``__init__`` drew its ``default_factory``: ids downstream of a refused
    job do not shift."""
    first = Job((CHAIN,)).job_id
    with pytest.raises(InvalidJobError):
        Job(())
    with pytest.raises(InvalidJobError):
        Job((CHAIN,), release=math.nan)
    assert Job((CHAIN,)).job_id == first + 3


def test_a_given_id_draws_none():
    first = Job((CHAIN,)).job_id
    Job((CHAIN,), job_id=5)
    Job((CHAIN,), job_id=None)
    replace(Job((CHAIN,), job_id=6), release=1.0)
    with pytest.raises(InvalidJobError):
        Job((), job_id=7)
    assert Job((CHAIN,)).job_id == first + 1


def test_instantiate_draws_one_id_and_replace_keeps_it():
    template = Job((CHAIN,), job_id=3)
    first = Job((CHAIN,)).job_id
    fresh = template.instantiate(2.0)
    assert fresh.job_id == first + 1 and fresh.release == 2.0
    assert template.released_at(4.0).job_id == 3
    assert Job((CHAIN,)).job_id == first + 2


# ---------------------------------------------------------------------------
# Round trips and the dataclass surface
# ---------------------------------------------------------------------------

_SAMPLES = {
    "request": lambda: ProcessorTimeRequest(2, 5.0),
    "task": lambda: TaskSpec("t", ProcessorTimeRequest(2, 5.0), 20.0, 0.5, 4),
    "chain": lambda: TaskChain((TaskSpec("t", ProcessorTimeRequest(2, 5.0)),), "c"),
    "chain-params": lambda: TaskChain((TASK,), "c", {"k": 1}),
    "job": lambda: Job((CHAIN, CHAIN), 1.5, 12, "n"),
    "job-none-id": lambda: Job((CHAIN,), 1.5, None, "n"),
}
_SLOTS = {
    ProcessorTimeRequest: ("processors", "duration"),
    TaskSpec: ("name", "request", "deadline", "quality", "max_concurrency"),
    TaskChain: ("tasks", "label", "params"),
    Job: ("chains", "release", "job_id", "name"),
}
_HASHABLE = [k for k in _SAMPLES if k != "chain-params"]


@pytest.mark.parametrize("which", list(_SAMPLES))
def test_replace_pickle_and_copy_round_trip(which):
    obj = _SAMPLES[which]()
    for twin in (replace(obj), pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                 copy.deepcopy(obj)):
        assert type(twin) is type(obj) and twin == obj and twin is not obj
        for f in fields(obj):
            assert type(getattr(twin, f.name)) is type(getattr(obj, f.name))
        assert repr(twin) == repr(obj)


@pytest.mark.parametrize("which", _HASHABLE)
def test_equal_records_hash_equal(which):
    obj, twin = _SAMPLES[which](), _SAMPLES[which]()
    assert obj == twin and hash(obj) == hash(twin)
    assert hash(obj) == hash(tuple(getattr(obj, f.name) for f in fields(obj)))


def test_a_chain_with_params_is_unhashable():
    with pytest.raises(TypeError):
        hash(_SAMPLES["chain-params"]())


@pytest.mark.parametrize(
    ("build", "change", "error"),
    [
        pytest.param(_SAMPLES["request"], {"duration": math.nan}, InvalidTaskError,
                     id="request"),
        pytest.param(_SAMPLES["task"], {"max_concurrency": 1.5}, InvalidTaskError,
                     id="task"),
        pytest.param(_SAMPLES["chain"], {"tasks": ()}, InvalidChainError, id="chain"),
        pytest.param(_SAMPLES["job"], {"release": math.inf}, InvalidJobError, id="job"),
    ],
)
def test_replace_runs_the_constructor_checks(build, change, error):
    with pytest.raises(error):
        replace(build(), **change)


def test_replace_converts_like_the_constructor():
    job = replace(_SAMPLES["job"](), release=np.float64(8.0), chains=[CHAIN])
    assert type(job.release) is float and job.chains == (CHAIN,)
    task = replace(_SAMPLES["task"](), deadline=30)
    assert type(task.deadline) is float and task.max_concurrency == 4


@pytest.mark.parametrize("which", list(_SAMPLES))
def test_frozen_and_slotted_as_before(which):
    obj = _SAMPLES[which]()
    cls = type(obj)
    assert cls.__slots__ == _SLOTS[cls]
    assert tuple(f.name for f in fields(obj)) == _SLOTS[cls]
    assert not hasattr(obj, "__dict__")
    plain = type("Plain", (), {"__slots__": _SLOTS[cls]})
    assert sys.getsizeof(obj) == sys.getsizeof(plain())
    assert cls.__dataclass_params__.frozen and cls.__dataclass_params__.eq
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(obj, f.name)
