#!/usr/bin/env python3
"""Multi-query sub-plan sharing: 32 standing queries, 8 shared units, 10 joins.

Many standing queries over a few shared streams repeat the same join
sub-cliques with the same windows — the classic multi-query overlap.  With
``share_subplans=True`` the :class:`~repro.multi.ShardedEngine` detects
queries whose canonical sub-plan signatures match (same sources, shape,
window, conditions, strategy, indexing — see ``docs/SHARING.md``), hosts one
shared join subtree per signature, and fans its output to every subscriber
through a tee operator.  Selections stay per-query, so
queries differing only in their filters still share the expensive joins.

A REF plan goes further: when the plan's inner join subtree is itself
hosted for a narrower query (``A ⋈ B`` under ``(A ⋈ B) ⋈ C``), the wider
unit reads that unit's tee instead of joining again, so of the 12 joins
the 8 distinct signatures describe only 10 are hosted.

The example serves the same workload twice — sharing off, then on — and
asserts the per-query result multisets are bit-identical while the shared
run executes a fraction of the scheduler steps.

Run with::

    python examples/shared_subplans.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload

#: 32 neighborhood queries over 4 shared streams: widths cycle (2, 2, 3),
#: ring starts cycle mod 4 and strategies alternate REF/JIT, so only 8
#: distinct signatures exist — each shared unit serves 4 subscribers.
N_QUERIES = 32


def build_registry(workload) -> QueryRegistry:
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, strategy="jit" if index % 2 else "ref",
                          use_hash_index=True)
    return registry


def serve(workload, events, share: bool):
    registry = build_registry(workload)
    # One shard: a unit can only read a partner hosted on its own shard.
    with ShardedEngine(registry, n_shards=1, scheduler="jit_aware",
                       share_subplans=share) as engine:
        start = time.perf_counter()
        engine.run(events)
        elapsed = time.perf_counter() - start
        multisets = {qid: engine.results_for(qid).multiset() for qid in registry.ids}
        stats = {
            "wall": elapsed,
            "steps": sum(s.cost.count("scheduler_step") for s in engine.shards),
            "active": sum(s.shared_subplans_active for s in engine.shards),
            "hits": sum(s.shared_subplan_hits for s in engine.shards),
            "nested": sum(
                len(unit.children)
                for shard in engine.shards for unit in shard.shared_subplans()
            ),
            "joins": sum(
                len(unit.plan.join_operators)
                for shard in engine.shards for unit in shard.shared_subplans()
            ),
        }
        if share:
            # A unit stays while a query or a parent unit reads it: retire
            # the queries of every unit a parent reads, then all the rest.
            shard = engine.shards[0]
            partners = [unit for unit in shard.shared_subplans() if unit.parents]
            for unit in partners:
                for query_id in list(unit.subscribers):
                    engine.retire_query(query_id)
            assert all(unit in shard.shared_subplans() for unit in partners)
            for query_id in list(engine.runtimes):
                engine.retire_query(query_id)
            assert shard.shared_subplans_active == 0 and shard.queue_count == 0
            stats["kept"] = len(partners)
    return multisets, stats


def main() -> None:
    workload = generate_multi_query_workload(
        n_queries=N_QUERIES, n_sources=4, rate=1.0, window_seconds=25.0,
        dmax=20, duration=300.0, seed=29,
    )
    events = workload.events()
    registry = build_registry(workload)
    groups = registry.share_groups()
    print(
        f"{len(events)} events over {N_QUERIES} standing queries; "
        f"{len(groups)} distinct sub-plan signatures "
        f"({N_QUERIES / len(groups):.0f} subscribers per shared subtree)"
    )

    unshared, off = serve(workload, events, share=False)
    shared, on = serve(workload, events, share=True)

    assert shared == unshared, "sharing changed a per-query result multiset!"
    assert on["active"] == len(groups)
    assert on["hits"] == N_QUERIES - len(groups)
    # The REF ternaries (A⋈B)⋈C and (C⋈D)⋈A read the A⋈B and C⋈D units.
    assert on["nested"] == 2 and on["joins"] == 10, on
    total = sum(sum(ms.values()) for ms in shared.values())
    print(f"per-query results identical across both runs ({total} results total)")
    print(
        f"  sharing off: {off['steps']:>7} scheduler steps, "
        f"{len(events) / off['wall']:>8,.0f} ev/s"
    )
    print(
        f"  sharing on:  {on['steps']:>7} scheduler steps, "
        f"{len(events) / on['wall']:>8,.0f} ev/s  "
        f"({on['active']} shared subtrees, {on['hits']} grafted registrations)"
    )
    print(
        f"  {on['nested']} units read a narrower unit's tee instead of "
        f"re-joining: {on['joins']} joins hosted; the {on['kept']} units read "
        "this way outlived their own queries until their readers retired"
    )
    print(
        f"  -> {off['steps'] / on['steps']:.1f}x fewer steps, "
        f"{off['wall'] / on['wall']:.1f}x faster wall-clock"
    )


if __name__ == "__main__":
    main()
