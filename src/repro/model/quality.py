"""Output-quality composition.

Section 3.1: "Each task also has an associated output quality ... The
quality value of the execution path is obtained by composing the output
qualities of each of the tasks."  The paper does not fix a composition
operator; for the Section 5 experiments all paths have equal quality so the
choice is moot, but the junction-detection application (and the
``max-quality`` arbitration policy) need a concrete one.  The composition
is the *product*: qualities are in ``[0, 1]`` and act like independent
retention factors.  The C admission loop accounts quality with the same
left-to-right multiplication, so both deciders add bit-identical floats.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.chain import TaskChain

__all__ = ["compose_product", "chain_quality"]


def compose_product(qualities: Iterable[float]) -> float:
    """Product composition: independent quality-retention factors."""
    out = 1.0
    seen = False
    for q in qualities:
        seen = True
        out *= q
    if not seen:
        raise ConfigurationError("cannot compose an empty quality sequence")
    return out


def chain_quality(chain: "TaskChain") -> float:
    """Quality value of an execution path: the product of its tasks'."""
    return compose_product(t.quality for t in chain.tasks)
