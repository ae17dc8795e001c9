"""Unit tests for trace records and Gantt rendering."""

from repro.core.placement import ChainPlacement, Placement
from repro.core.resources import ProcessorTimeRequest
from repro.core.schedule import Schedule
from repro.model.chain import TaskChain
from repro.model.task import TaskSpec
from repro.sim.trace import (
    records_to_csv,
    render_gantt,
    schedule_records,
)


def committed_schedule():
    s = Schedule(4)
    chain = TaskChain(
        (
            TaskSpec("a", ProcessorTimeRequest(2, 5.0), deadline=100.0),
            TaskSpec("b", ProcessorTimeRequest(1, 3.0), deadline=100.0),
        )
    )
    s.commit(
        ChainPlacement(
            job_id=3,
            chain_index=0,
            chain=chain,
            placements=(
                Placement.rigid(chain[0], 0.0),
                Placement.rigid(chain[1], 5.0),
            ),
            release=0.0,
        )
    )
    return s


class TestRecords:
    def test_flatten_sorted(self):
        records = schedule_records(committed_schedule())
        assert [
            (r.job_id, r.chain_index, r.task, r.start, r.end, r.processors)
            for r in records
        ] == [(3, 0, "a", 0.0, 5.0, 2), (3, 0, "b", 5.0, 8.0, 1)]
        assert records[0].duration == 5.0

    def test_one_record_per_committed_placement(self):
        s = Schedule(4)
        chain = TaskChain(
            (TaskSpec("t", ProcessorTimeRequest(2, 5.0), deadline=1000.0),)
        )
        s.commit(
            ChainPlacement(
                job_id=7,
                chain_index=0,
                chain=chain,
                placements=(Placement.rigid(chain[0], 1.0),),
                release=0.0,
            )
        )
        assert [
            (r.job_id, r.task, r.start, r.end, r.processors)
            for r in schedule_records(s)
        ] == [(7, "t", 1.0, 6.0, 2)]

    def test_csv(self):
        csv = records_to_csv(schedule_records(committed_schedule()))
        lines = csv.strip().split("\n")
        assert lines[0].startswith("job_id,")
        assert len(lines) == 3
        assert "3,0,a,0,5,2" in lines[1]


class TestGantt:
    def test_empty(self):
        assert "empty" in render_gantt(Schedule(2))

    def test_rows_per_job(self):
        text = render_gantt(committed_schedule(), width=40)
        assert "job    3" in text
        assert "#" in text

    def test_window_clipping(self):
        text = render_gantt(committed_schedule(), width=40, t0=0.0, t1=4.0)
        assert "[0, 4]" in text
