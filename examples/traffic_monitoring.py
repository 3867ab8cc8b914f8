#!/usr/bin/env python3
"""Road-traffic monitoring example (Linear Road-style workload).

The paper cites road traffic monitoring [3] as a canonical DSMS application.
This example correlates two streams — position reports from vehicles and
incident reports from roadside units — to find vehicles that were near an
incident location shortly after it was reported, and additionally maintains a
per-segment vehicle count with the windowed aggregate operator.

It demonstrates the public API pieces beyond the clique-join benchmarks:
hand-built queries, JIT joins under the default configuration, and the
aggregation operator.

Run with::

    python examples/traffic_monitoring.py
"""

from __future__ import annotations

import random

from repro import (
    STRATEGY_JIT,
    STRATEGY_REF,
    AttributeRef,
    ContinuousQuery,
    JoinPredicate,
    SourceSchema,
    StreamSource,
    Window,
    build_xjoin_plan,
    run_workload,
)
from repro.context import ExecutionContext
from repro.engine import ExecutionEngine
from repro.engine.results import result_multiset
from repro.operators.aggregate import AggregateFunction, WindowAggregateOperator
from repro.operators.base import PORT_INPUT
from repro.streams.sources import PoissonArrivals, merge_sources

SEGMENTS = 60
WINDOW_SECONDS = 90.0
DURATION_SECONDS = 600.0


def _positions(seed: int) -> StreamSource:
    def values(rng: random.Random, schema: SourceSchema) -> dict:
        return {
            "segment": rng.randint(1, SEGMENTS),
            "vehicle": rng.randint(1, 400),
            "speed": rng.randint(10, 120),
        }

    return StreamSource(
        schema=SourceSchema.of("POS", ["segment", "vehicle", "speed"]),
        arrivals=PoissonArrivals(3.0),
        value_generator=values,
        seed=seed,
    )


def _incidents(seed: int) -> StreamSource:
    def values(rng: random.Random, schema: SourceSchema) -> dict:
        return {"segment": rng.randint(1, SEGMENTS), "severity": rng.randint(1, 3)}

    return StreamSource(
        schema=SourceSchema.of("INC", ["segment", "severity"]),
        arrivals=PoissonArrivals(0.2),
        value_generator=values,
        seed=seed,
    )


def correlation_query() -> ContinuousQuery:
    """Vehicles observed in the same segment as a recent incident."""
    predicate = JoinPredicate.equi([(("POS", "segment"), ("INC", "segment"))])
    return ContinuousQuery(
        sources=("POS", "INC"), window=Window(WINDOW_SECONDS), predicate=predicate
    )


def run_correlation(events) -> None:
    query = correlation_query()
    print("Incident-correlation query:")
    print(" ", query.describe(), "\n")
    reports = {}
    for strategy in (STRATEGY_REF, STRATEGY_JIT):
        plan = build_xjoin_plan(query, strategy=strategy)
        reports[strategy] = run_workload(plan, events, window_length=WINDOW_SECONDS)
        print(reports[strategy].summary())
    ref, jit = reports[STRATEGY_REF], reports[STRATEGY_JIT]
    assert result_multiset(ref.results.results) == result_multiset(jit.results.results)
    print(f"\nBoth executions matched {ref.result_count} vehicle/incident pairs.\n")


def run_segment_counts(events) -> None:
    """Maintain vehicles-per-segment counts with the windowed aggregate."""
    context = ExecutionContext(window=Window(WINDOW_SECONDS))
    aggregate = WindowAggregateOperator(
        "vehicles_per_segment",
        AggregateFunction.COUNT,
        group_ref=AttributeRef("POS", "segment"),
    )
    aggregate.attach(context)
    updates = []
    aggregate.result_sink = updates.append
    for event in events:
        if event.source != "POS":
            continue
        context.clock.advance_to(event.ts)
        aggregate.process(event, PORT_INPUT)
    busiest = max(
        (seg for seg in range(1, SEGMENTS + 1)),
        key=lambda seg: aggregate.current_value(seg) or 0,
    )
    print(
        f"Aggregate operator emitted {len(updates)} count updates; busiest segment at the "
        f"end of the run: #{busiest} with {aggregate.current_value(busiest)} vehicles in the window."
    )


def main() -> None:
    events = merge_sources([_positions(seed=7), _incidents(seed=8)], DURATION_SECONDS)
    print(f"Replaying {len(events)} traffic events...\n")
    run_correlation(events)
    run_segment_counts(events)


if __name__ == "__main__":
    main()
