#!/usr/bin/env python3
"""Quickstart: run the same continuous query with and without JIT.

This script builds the paper's synthetic clique-join workload (Section VI),
executes it once with conventional processing (REF) and once with Just-In-Time
processing (JIT), verifies that both produce exactly the same results, and
prints the CPU / memory comparison — a miniature version of the paper's
evaluation figures.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    PLAN_BUSHY,
    STRATEGY_JIT,
    STRATEGY_REF,
    ContinuousQuery,
    build_xjoin_plan,
    generate_clique_workload,
    run_workload,
)
from repro.engine.results import result_multiset


def main() -> None:
    # 1. A synthetic workload: 4 streams, clique equi-join predicate, Poisson
    #    arrivals at 1 tuple/s per stream, values uniform in [1..40], a
    #    2-minute sliding window, 8 minutes of application time.
    workload = generate_clique_workload(
        n_sources=4,
        rate=1.0,
        window_seconds=120,
        dmax=40,
        duration=480,
        seed=42,
    )
    query = ContinuousQuery.from_workload(workload)
    print("Continuous query:")
    print(" ", query.describe())
    print("Workload:", workload.describe())
    print()

    # 2. The same event sequence is replayed through a REF plan and a JIT plan
    #    (bushy join tree, Table II shape for N=4).
    events = workload.events()
    reports = {}
    for strategy in (STRATEGY_REF, STRATEGY_JIT):
        plan = build_xjoin_plan(query, shape=PLAN_BUSHY, strategy=strategy)
        reports[strategy] = run_workload(plan, events, window_length=workload.window.length)
        print(reports[strategy].summary())

    # 3. JIT is an optimization, not an approximation: the result sets match.
    ref, jit = reports[STRATEGY_REF], reports[STRATEGY_JIT]
    assert result_multiset(ref.results.results) == result_multiset(jit.results.results)
    print()
    print(f"Both strategies produced the same {ref.result_count} results.")
    ratio = ref.cpu_units / jit.cpu_units if jit.cpu_units else float("inf")
    print(f"CPU cost units   REF/JIT ratio: {ratio:.2f}x")
    print(f"Peak memory (KB) REF: {ref.peak_memory_kb:.1f}   JIT: {jit.peak_memory_kb:.1f}")
    print()
    print("Tip: the JIT advantage grows with the window length and arrival rate")
    print("(the paper's Figures 10-17); see benchmarks/bench_figures.py and")
    print("benchmarks/BENCH_figures.json for the full parameter sweeps.")


if __name__ == "__main__":
    main()
