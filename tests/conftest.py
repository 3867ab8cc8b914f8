"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.context import ExecutionContext
from repro.operators.predicates import AttributeRef, EquiJoinCondition, JoinPredicate
from repro.streams.generators import generate_clique_workload
from repro.streams.time import Window
from repro.streams.tuples import AtomicTuple

from helpers import make_tuple


@pytest.fixture
def window() -> Window:
    """A 60-second window used by most unit tests."""
    return Window(60.0)


@pytest.fixture
def context(window: Window) -> ExecutionContext:
    """A fresh execution context with a 60-second window."""
    return ExecutionContext(window=window)


@pytest.fixture
def abc_predicate() -> JoinPredicate:
    """The running example's predicate: A.x = B.x AND A.y = C.y (Figure 1a)."""
    return JoinPredicate(
        (
            EquiJoinCondition(AttributeRef("A", "x"), AttributeRef("B", "x")),
            EquiJoinCondition(AttributeRef("A", "y"), AttributeRef("C", "y")),
        )
    )


@pytest.fixture
def small_workload():
    """A tiny 3-source clique workload for integration tests."""
    return generate_clique_workload(
        n_sources=3, rate=1.0, window_seconds=40, dmax=6, duration=100, seed=11
    )


@pytest.fixture
def tuple_factory():
    """Expose :func:`make_tuple` as a fixture."""
    return make_tuple


def pick_through_deltas(scheduler, ready) -> int:
    """One scheduling decision over exactly ``ready``; returns the chosen index.

    Drives the scheduler the way the engine does: inputs entering ``ready``
    are announced with ``on_ready``, inputs that left it with ``on_unready``,
    the decision is ``pop_next``.  No tuple is popped, so the chosen input is
    re-registered under its unchanged head with ``on_head_change`` and a
    policy unit test can ask for several decisions over the same heads.
    """
    wanted = {item.order for item in ready}
    registered = {item.order: item for item in scheduler.ready_items()}
    for order, item in registered.items():
        if order not in wanted:
            scheduler.on_unready(item)
    for item in ready:
        if item.order not in registered:
            scheduler.on_ready(item)
    choice = scheduler.pop_next()
    scheduler.on_head_change(choice)
    return ready.index(choice)


@pytest.fixture
def pick():
    """Expose :func:`pick_through_deltas` as a fixture."""
    return pick_through_deltas
