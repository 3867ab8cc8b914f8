"""Footprint guard: what a generated event and a stored state entry really cost.

The memory model charges ``16 + 8 * attrs`` bytes per tuple; these tests
pin the Python objects behind it, counted by ``tracemalloc``.  Each bound is
the value measured on CPython 3.11 (the interpreter CI pins) plus 5%, so a
change that brings back an attribute dict per tuple (~+110 B per event), a
wrapper object around each arrival (~+56 B per event), a heap tuple per
state entry (~+70 B per entry) or a bucket list per indexed entry (~+90 B)
fails here.  Object sizes differ between interpreter versions, so the tests
run on 3.11 only.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.context import ExecutionContext
from repro.multi import generate_multi_query_workload
from repro.plans.builder import STRATEGY_REF, build_xjoin_plan
from repro.plans.query import ContinuousQuery
from repro.streams.generators import generate_clique_workload
from repro.streams.time import Window

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="byte bounds measured on CPython 3.11, the interpreter CI pins",
)

#: Traced bytes per generated event: 236.4 measured (292.4 with a wrapper
#: object around each arrival's tuple, 339.6 with a hash cached per tuple as
#: well, 451.4 with an attribute dict per tuple as well).
EVENT_BYTES_BOUND = 236.4 * 1.05
#: Traced bytes per stored entry of a REF join, the arrivals inserted
#: straight into the states: 116.6 measured.  Run through ``run_workload``
#: (probes, result collector and its 7 results included) the same entries
#: measured 118.4, 146.3 with separate ``seq`` and ``order`` ints per entry
#: and 227.2 with an expiry-heap tuple and an ``inserted_at`` slot as well.
ENTRY_BYTES_BOUND = 116.6 * 1.05
#: The same on a hash-indexed REF join, what ``clique128`` runs: 153.4
#: measured (155.6 through ``run_workload``; 319.5 there with a bucket list
#: and a 1-tuple key per entry).
INDEXED_ENTRY_BYTES_BOUND = 153.4 * 1.05


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


def _bytes_per_stored_entry(use_hash_index: bool) -> float:
    # Every arrival is inserted into its join's state and nothing probes or
    # expires (the window outlasts the stream), so the traced memory is the
    # stored entries alone.
    workload = generate_clique_workload(
        n_sources=2, rate=5.0, window_seconds=1000.0, dmax=10**6, duration=400.0, seed=7
    )
    events = workload.events()
    plan = build_xjoin_plan(
        ContinuousQuery.from_workload(workload),
        strategy=STRATEGY_REF,
        use_hash_index=use_hash_index,
    )
    context = ExecutionContext(window=Window(workload.window.length))
    plan.attach(context)

    def insert_all() -> None:
        for event in events:
            context.clock.advance_to(event.ts)
            for operator, port in plan.targets_for(event.source):
                operator.insert_into_state(event, port)

    _, held = _traced(insert_all)
    stored = sum(len(state) for op in plan.join_operators for state in op.states.values())
    assert stored == len(events) == 4016
    return held / stored


def test_bytes_per_stored_state_entry():
    assert _bytes_per_stored_entry(use_hash_index=False) <= ENTRY_BYTES_BOUND


def test_bytes_per_indexed_state_entry():
    # Nearly every key is unique, so nearly every bucket is its one entry.
    assert _bytes_per_stored_entry(use_hash_index=True) <= INDEXED_ENTRY_BYTES_BOUND
