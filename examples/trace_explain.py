#!/usr/bin/env python3
"""Flight recorder walkthrough: trace a shared-subplan run, then explain it.

Runs a multi-query workload with sub-plan sharing enabled and a
:class:`~repro.trace.Tracer` recording every event's causal path —
ingest, router fan-out, scheduler pops, operator steps with their
cost-kind charges, MNS suspend/resume pairs, tee fan-outs and result
emissions.  Afterwards it:

1. validates the Chrome trace-event export (the same schema check CI
   runs) and writes it next to this script — load the file at
   https://ui.perfetto.dev or in ``about:tracing`` to see one track per
   shard with the MNS suspension windows drawn as async spans;
2. checks the shared-subtree tee actually fanned each shared result out
   to several subscriber queries inside sampled traces;
3. prints ``explain_analyze`` for a shared join subtree, for one
   subscriber query, and for a REF unit that reads another unit's tee in
   place of building its inner join, annotated with the traced
   per-operator profile;
4. prints the tracer's own counters — the numbers the serving layer
   exposes as the ``trace_*`` telemetry families.

The script asserts its expectations and exits non-zero on violation, so
CI uses it as the tracing smoke test.  See ``docs/TRACING.md``.

Run with::

    python examples/trace_explain.py [trace-out.json]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.serve import OverloadPolicy, StreamServer
from repro.trace import Tracer, explain_analyze, validate_chrome_trace

#: 6 distinct queries, each registered twice -> every shared subtree has at
#: least two subscribers, so tee fan-out spans are guaranteed.
N_DISTINCT = 6


def build_registry(workload) -> QueryRegistry:
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, query_id=f"q{index}", use_hash_index=True)
        registry.register(query, query_id=f"dup_{index}", use_hash_index=True)
    # A REF A ⋈ B and a REF (A ⋈ B) ⋈ C: placed on the same shard, the
    # ternary's unit reads the binary's tee instead of joining A and B again.
    registry.register(workload.query(0), query_id="ref_ab", strategy="ref",
                      use_hash_index=True)
    registry.register(workload.query(8), query_id="ref_abc", strategy="ref",
                      use_hash_index=True)
    return registry


def main(out_path: Path) -> None:
    workload = generate_multi_query_workload(
        n_queries=N_DISTINCT, n_sources=4, rate=0.8,
        window_seconds=20, dmax=4, duration=60, seed=3,
    )
    registry = build_registry(workload)
    tracer = Tracer(sample_rate=1.0, capacity=200_000, seed=0)
    engine = ShardedEngine(
        registry, n_shards=2, scheduler="jit_aware", share_subplans=True
    )
    with StreamServer(
        engine, capacity=128, policy=OverloadPolicy.BLOCK, tracer=tracer
    ) as server:
        for event in workload.events():
            server.submit(event)
        server.flush()

        # 1. The Chrome trace export must pass the schema check CI enforces:
        # every record carries name/ph/pid/tid, durations are non-negative
        # and every MNS async end has a matching, earlier begin.
        trace = validate_chrome_trace(tracer.chrome_trace())
        tracer.write_chrome_trace(out_path)
        print(f"chrome trace: {len(trace['traceEvents'])} records -> {out_path}")

        # 2. The shared subtrees must have fanned results out to >1
        # subscriber inside sampled traces.
        fanouts = [
            record for record in trace["traceEvents"]
            if record.get("cat") == "tee_fanout"
        ]
        assert fanouts, "no tee fan-out spans recorded in a shared run"
        widest = max(fanouts, key=lambda r: len(r["args"]["subscribers"]))
        assert len(widest["args"]["subscribers"]) >= 2, widest
        print(
            f"tee fan-out spans: {len(fanouts)}, widest delivers to "
            f"{len(widest['args']['subscribers'])} subscribers "
            f"{widest['args']['subscribers']}"
        )

        # 3. explain_analyze over a shared subtree and over one subscriber.
        shared = [s for shard in engine.shards for s in shard.shared_subplans()]
        assert shared, "share_subplans=True found no overlap in a dup workload"
        subtree = max(shared, key=lambda s: s.tee.subscriber_count)
        print()
        print(explain_analyze(
            tracer, subtree.plan, shard=subtree.shard_id,
            query_id=",".join(subtree.tee.subscriber_ids),
            share_hits=subtree.hits,
            label_prefix=f"shared-{subtree.key}:",
        ))
        # One subscriber's view: a query with a private overlay explains its
        # own plan (leaves at the tee); an overlay-less query — every query
        # in this pure-join workload — explains the subtree it consumes.
        runtime = next(
            runtime
            for shard in engine.shards for runtime in shard.runtimes
            if runtime.shared is subtree
        )
        plan = runtime.plan if runtime.plan is not None else runtime.shared.plan
        prefix = (
            f"{runtime.query_id}:" if runtime.plan is not None
            else f"shared-{runtime.shared.key}:"
        )
        print(explain_analyze(
            tracer, plan, shard=runtime.shard_id,
            query_id=runtime.query_id, label_prefix=prefix,
        ))

        # The nested unit names the unit whose tee feeds its join port.
        nested = engine.runtime_for("ref_abc").shared
        (partner,) = nested.children
        assert partner is engine.runtime_for("ref_ab").shared
        text = explain_analyze(
            tracer, nested.plan, shard=nested.shard_id, query_id="ref_abc",
            label_prefix=f"{nested.name}:",
        )
        assert f"-> tee of {partner.name} [left]" in text, text
        print(text)

        # 4. The counters the serving layer bridges as trace_* gauges.
        stats = tracer.stats()
        assert stats["traces_sampled"] == stats["traces_started"] > 0
        assert stats["spans_recorded"] > 0
        assert stats["mns_spans_open"] == 0, "unpaired MNS suspension spans"
        print("tracer stats:")
        for key, value in sorted(stats.items()):
            print(f"  {key:<18} {value}")
        for line in server.exposition().splitlines():
            if line.startswith("trace_") and not line.startswith(("# ",)):
                print(f"  exposition: {line}")


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent / "trace_explain.json"
    )
    main(out)
    print("\nok: trace validated, tee fan-out and a nested unit observed, MNS spans paired")
