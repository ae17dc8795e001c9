"""Unit tests for resource contracts."""

import pytest

from repro.core.placement import ChainPlacement, Placement
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.task import TaskSpec
from repro.qos.contract import ResourceContract


@pytest.fixture
def contract():
    chain = TaskChain(
        (
            TaskSpec("a", ProcessorTimeRequest(2, 5.0), deadline=50.0, quality=0.8),
            TaskSpec("b", ProcessorTimeRequest(4, 2.0), deadline=50.0, quality=0.5),
        )
    )
    cp = ChainPlacement(
        job_id=9,
        chain_index=1,
        chain=chain,
        placements=(
            Placement.rigid(chain[0], 0.0),
            Placement.rigid(chain[1], 5.0),
        ),
        release=0.0,
    )
    return ResourceContract(job_id=9, placement=cp, params={"g": 16})


class TestContract:
    def test_fields(self, contract):
        assert contract.chain_index == 1
        assert contract.start == 0.0
        assert contract.finish == 7.0
        assert contract.params["g"] == 16

    def test_params_read_only(self, contract):
        with pytest.raises(TypeError):
            contract.params["g"] = 64  # type: ignore[index]

    def test_quality(self, contract):
        assert contract.quality() == pytest.approx(0.4)

    def test_task_schedule(self, contract):
        rows = contract.task_schedule()
        assert rows == [("a", 0.0, 5.0, 2), ("b", 5.0, 7.0, 4)]
