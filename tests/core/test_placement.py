"""Unit tests for placement records."""

import copy
import dataclasses
import math
import pickle

import pytest

from repro.core.admission import AdmissionDecision
from repro.core.placement import ChainPlacement, Placement
from repro.core.resources import ProcessorTimeRequest
from repro.errors import ScheduleConsistencyError
from repro.model.chain import TaskChain
from repro.model.task import TaskSpec


def make_chain():
    return TaskChain(
        (
            TaskSpec("a", ProcessorTimeRequest(2, 5.0), deadline=20.0),
            TaskSpec("b", ProcessorTimeRequest(1, 3.0), deadline=40.0),
        )
    )


class TestPlacement:
    def test_rigid_matches_request(self):
        t = TaskSpec("x", ProcessorTimeRequest(3, 4.0), deadline=10.0)
        pl = Placement.rigid(t, 2.0)
        assert pl.processors == 3
        assert pl.duration == 4.0
        assert pl.end == 6.0
        assert pl.area == 12.0

    def test_nonfinite_start_rejected(self):
        t = TaskSpec("x", ProcessorTimeRequest(1, 1.0), deadline=10.0)
        with pytest.raises(ScheduleConsistencyError):
            Placement(t, math.inf, 1, 1.0)
        with pytest.raises(ScheduleConsistencyError):
            Placement(t, math.nan, 1, 1.0)

    def test_nonpositive_extent_rejected(self):
        t = TaskSpec("x", ProcessorTimeRequest(1, 1.0), deadline=10.0)
        with pytest.raises(ScheduleConsistencyError):
            Placement(t, 0.0, 0, 1.0)
        with pytest.raises(ScheduleConsistencyError):
            Placement(t, 0.0, 1, 0.0)


class TestChainPlacement:
    def make(self, start_a=0.0, start_b=5.0, release=0.0):
        chain = make_chain()
        return ChainPlacement(
            job_id=1,
            chain_index=0,
            chain=chain,
            placements=(
                Placement.rigid(chain[0], start_a),
                Placement.rigid(chain[1], start_b),
            ),
            release=release,
        )

    def test_valid_placement(self):
        cp = self.make()
        cp.validate()
        assert cp.start == 0.0
        assert cp.finish == 8.0
        assert cp.response_time == 8.0
        assert cp.total_area == 2 * 5 + 1 * 3

    def test_gap_between_tasks_is_fine(self):
        cp = self.make(start_b=10.0)
        cp.validate()
        assert cp.finish == 13.0

    def test_precedence_violation(self):
        cp = self.make(start_a=3.0, start_b=5.0)  # a ends at 8 > b start 5
        with pytest.raises(ScheduleConsistencyError, match="predecessor"):
            cp.validate()

    def test_start_before_release(self):
        cp = self.make(release=1.0)  # a starts at 0 < release 1
        with pytest.raises(ScheduleConsistencyError):
            cp.validate()

    def test_deadline_violation(self):
        cp = self.make(start_a=16.0, start_b=21.0)  # a ends 21 > deadline 20
        with pytest.raises(ScheduleConsistencyError, match="deadline"):
            cp.validate()

    def test_deadline_relative_to_release(self):
        # Released at 10: a may finish by 30.
        cp = self.make(start_a=20.0, start_b=25.0, release=10.0)
        cp.validate()

    def test_placement_count_mismatch(self):
        chain = make_chain()
        with pytest.raises(ScheduleConsistencyError):
            ChainPlacement(
                job_id=1,
                chain_index=0,
                chain=chain,
                placements=(Placement.rigid(chain[0], 0.0),),
                release=0.0,
            )

    def test_iteration(self):
        cp = self.make()
        assert [pl.task.name for pl in cp] == ["a", "b"]


class TestNonFiniteExtent:
    """``test_nonpositive_extent_rejected``'s family: ``nan <= 0`` is false,
    so a NaN (or infinite) duration used to get through and give an ``end``
    that every later time comparison answers wrongly."""

    @pytest.mark.parametrize("duration", (math.nan, math.inf))
    def test_nonfinite_duration_rejected(self, duration):
        t = TaskSpec("x", ProcessorTimeRequest(2, 1.0), deadline=10.0)
        with pytest.raises(ScheduleConsistencyError, match="non-positive extent"):
            Placement(t, 0.0, 2, duration)

    def test_message_is_the_existing_one(self):
        t = TaskSpec("x", ProcessorTimeRequest(2, 1.0), deadline=10.0)
        with pytest.raises(ScheduleConsistencyError) as caught:
            Placement(t, 0.0, 2, math.nan)
        assert str(caught.value) == (
            "placement of 'x' has non-positive extent (2 procs, nan time)"
        )
        with pytest.raises(ScheduleConsistencyError) as caught:
            Placement(t, math.nan, 2, 1.0)
        assert str(caught.value) == "placement of 'x' has non-finite start nan"


# ---------------------------------------------------------------------------
# The decision objects write their own __init__ (resources.slot_setters);
# everything else about them is still the frozen, slotted dataclass.
# ---------------------------------------------------------------------------

_TASK_REPR = (
    "TaskSpec(name='a', request=ProcessorTimeRequest(processors=2, "
    "duration=5.0), deadline=20.0, quality=1.0, max_concurrency=2)"
)
_PLACEMENT_REPR = f"Placement(task={_TASK_REPR}, start=1.5, processors=2, duration=5.0)"


def _decision_objects():
    task = TaskSpec("a", ProcessorTimeRequest(2, 5.0), deadline=20.0)
    chain = TaskChain((task,), label="c")
    pl = Placement(task, 1.5, 2, 5.0)
    cp = ChainPlacement(7, 0, chain, (pl,), 1.0)
    return task, chain, pl, cp, AdmissionDecision(7, True, cp)


def _reference(obj):
    """The same fields on a frozen, slotted dataclass with the generated
    ``__init__`` — what the class was before it wrote its own."""
    cls = dataclasses.make_dataclass(
        type(obj).__name__,
        [(f.name, f.type) for f in dataclasses.fields(obj)],
        frozen=True, slots=True,
    )
    return cls(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))


class TestFrozenDecisionObjects:
    @pytest.mark.parametrize("which", (2, 3, 4))
    def test_still_a_frozen_slotted_dataclass(self, which):
        obj = _decision_objects()[which]
        params = type(obj).__dataclass_params__
        assert params.frozen and params.eq
        assert not hasattr(obj, "__dict__")
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)

    @pytest.mark.parametrize("which", (2, 3, 4))
    def test_eq_hash_repr_are_the_generated_ones(self, which):
        obj = _decision_objects()[which]
        twin = _decision_objects()[which]
        ref = _reference(obj)
        assert obj == twin and obj is not twin and hash(obj) == hash(twin)
        assert repr(obj) == repr(ref)
        assert hash(obj) == hash(ref)  # both hash the tuple of fields
        assert obj != ref  # as any two dataclasses of different classes

    def test_pinned_reprs(self):
        _, _, pl, cp, decision = _decision_objects()
        chain_repr = f"TaskChain(tasks=({_TASK_REPR},), label='c', params=None)"
        cp_repr = (
            f"ChainPlacement(job_id=7, chain_index=0, chain={chain_repr}, "
            f"placements=({_PLACEMENT_REPR},), release=1.0)"
        )
        assert repr(pl) == _PLACEMENT_REPR
        assert repr(cp) == cp_repr
        assert repr(decision) == (
            f"AdmissionDecision(job_id=7, admitted=True, placement={cp_repr}, reason='')"
        )
        assert repr(AdmissionDecision(8, False, None, "no")) == (
            "AdmissionDecision(job_id=8, admitted=False, placement=None, reason='no')"
        )

    def test_keyword_and_positional_construction_agree(self):
        task, chain, pl, cp, decision = _decision_objects()
        assert Placement(task=task, start=1.5, processors=2, duration=5.0) == pl
        assert ChainPlacement(
            job_id=7, chain_index=0, chain=chain, placements=(pl,), release=1.0
        ) == cp
        assert AdmissionDecision(job_id=7, admitted=True, placement=cp) == decision
        assert AdmissionDecision(7, True, cp, reason="") == decision
        assert AdmissionDecision(7, False, None).reason == ""
        with pytest.raises(TypeError):
            Placement(task, 1.5, 2)  # a field short
        with pytest.raises(TypeError):
            AdmissionDecision(7, True, cp, "", None)  # one too many

    def test_replace_changes_one_field_and_validates_again(self):
        task, chain, pl, cp, decision = _decision_objects()
        moved = dataclasses.replace(pl, start=2.5)
        assert moved == Placement(task, 2.5, 2, 5.0) and moved != pl
        with pytest.raises(ScheduleConsistencyError, match="non-finite start"):
            dataclasses.replace(pl, start=math.inf)
        with pytest.raises(ScheduleConsistencyError, match="non-positive extent"):
            dataclasses.replace(pl, processors=0)
        other = dataclasses.replace(cp, chain_index=1)
        assert (other.chain_index, other.placements) == (1, cp.placements)
        assert other.placements is cp.placements
        with pytest.raises(ScheduleConsistencyError, match="0 placements"):
            dataclasses.replace(cp, placements=())
        refused = dataclasses.replace(decision, admitted=False, placement=None)
        assert refused == AdmissionDecision(7, False, None)

    @pytest.mark.parametrize("which", (2, 3, 4))
    def test_deepcopy_and_pickle_round_trip(self, which):
        obj = _decision_objects()[which]
        for clone in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert clone == obj and clone is not obj
            assert hash(clone) == hash(obj)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(clone, dataclasses.fields(clone)[0].name, 0)

    def test_placements_given_as_a_list_become_a_tuple(self):
        _, chain, pl, cp, _ = _decision_objects()
        listed = ChainPlacement(7, 0, chain, [pl], 1.0)
        assert type(listed.placements) is tuple and listed == cp
        assert hash(listed) == hash(cp)
        lazily = ChainPlacement(7, 0, chain, iter([pl]), 1.0)
        assert lazily == cp

    def test_length_mismatch_message(self):
        _, chain, pl, _, _ = _decision_objects()
        with pytest.raises(ScheduleConsistencyError) as caught:
            ChainPlacement(7, 0, chain, (pl, pl), 1.0)
        assert str(caught.value) == "job 7: 2 placements for a 1-task chain"
