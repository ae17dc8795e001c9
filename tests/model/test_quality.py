"""Unit tests for quality composition: the product of the task qualities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.resources import ProcessorTimeRequest
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.quality import chain_quality, compose_product
from repro.model.task import TaskSpec


def chain_with_qualities(*qs):
    return TaskChain(
        tuple(
            TaskSpec(f"t{i}", ProcessorTimeRequest(1, 1.0), deadline=10.0, quality=q)
            for i, q in enumerate(qs)
        )
    )


class TestCompositions:
    def test_product(self):
        assert compose_product([0.5, 0.8]) == pytest.approx(0.4)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            compose_product([])

    def test_chain_quality_is_the_left_to_right_product(self):
        """A path's quality is ``1.0`` times each task's, left to right:
        the operation order the C loop repeats, so both add equal bits."""
        c = chain_with_qualities(0.3, 0.7, 0.9)
        assert chain_quality(c) == ((1.0 * 0.3) * 0.7) * 0.9

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_product_in_unit_interval(self, qs):
        assert 0.0 <= compose_product(qs) <= 1.0
