"""Footprint guard: what a generated event and a stored state entry really cost.

The memory model charges ``16 + 8 * attrs`` bytes per tuple; these tests
pin the Python objects behind it, counted by ``tracemalloc``.  Each bound is
the value measured on CPython 3.11 (the interpreter CI pins) plus 5%, so a
change that brings back an attribute dict per tuple (~+110 B per event) or a
heap tuple per state entry (~+70 B per entry) fails here.  Object sizes
differ between interpreter versions, so the tests run on 3.11 only.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.engine import run_workload
from repro.multi import generate_multi_query_workload
from repro.plans.builder import STRATEGY_REF, build_xjoin_plan
from repro.plans.query import ContinuousQuery
from repro.streams.generators import generate_clique_workload

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="byte bounds measured on CPython 3.11, the interpreter CI pins",
)

#: Traced bytes per generated event: 339.6 measured (451.4 with an attribute
#: dict per tuple).
EVENT_BYTES_BOUND = 339.6 * 1.05
#: Traced bytes per stored entry of a REF join: 146.3 measured (227.2 with
#: an expiry-heap tuple and an ``inserted_at`` slot per entry).
ENTRY_BYTES_BOUND = 146.3 * 1.05


def _traced(run):
    """Run ``run`` under tracemalloc; return its result and the bytes still held."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


def test_bytes_per_generated_event():
    # The population of the end-to-end benchmark's shared128 workload.
    workload = generate_multi_query_workload(
        n_queries=128, n_sources=4, rate=1.0, window_seconds=30.0, dmax=400,
        duration=3000.0, seed=7,
    )
    events, held = _traced(workload.events)
    assert len(events) == 11913
    assert held / len(events) <= EVENT_BYTES_BOUND


def test_bytes_per_stored_state_entry():
    # Nothing expires (the window outlasts the stream) and almost nothing
    # joins (dmax is huge), so the run's memory is its stored entries.
    workload = generate_clique_workload(
        n_sources=2, rate=5.0, window_seconds=1000.0, dmax=10**6, duration=400.0, seed=7
    )
    events = workload.events()
    plan = build_xjoin_plan(ContinuousQuery.from_workload(workload), strategy=STRATEGY_REF)
    report, held = _traced(lambda: run_workload(plan, events, workload.window.length))
    stored = sum(len(state) for op in plan.join_operators for state in op.states.values())
    assert stored == len(events) == 4016
    assert len(report.results.results) == 7
    assert held / stored <= ENTRY_BYTES_BOUND
