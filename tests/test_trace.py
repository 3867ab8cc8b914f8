"""Flight-recorder tests: span model, sampling, exports, and zero-impact.

Covers the tracing subsystem end to end:

* the bounded :class:`SpanRing` (eviction + drop accounting),
* head-based deterministic sampling (same seed -> same sampled traces),
* Chrome trace-event export (schema-validated, on a traced
  ``share_subplans=True`` sharded run: tee fan-out spans naming every
  subscriber, MNS suspend/resume async pairs balanced),
* the ``trace_*`` telemetry families bridged through the serving layer,
* ``explain_analyze`` report content (per-plan profile namespacing), and
* the observation-only guarantee: a traced run produces the same result
  multisets and modelled costs as an untraced one.
"""

from __future__ import annotations

import json

import pytest

from helpers import make_tuple
from repro.context import ExecutionContext
from repro.engine import ExecutionEngine, ExecutionMode
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import (
    PLAN_LEFT_DEEP,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.scheduler import build_scheduler
from repro.serve import OverloadPolicy, StreamServer, parse_exposition
from repro.streams.generators import generate_clique_workload
from repro.streams.time import Window
from repro.trace import (
    SpanKind,
    SpanRing,
    Tracer,
    explain_analyze,
    validate_chrome_trace,
)

# ------------------------------------------------------------------ fixtures


def _workload():
    return generate_multi_query_workload(
        n_queries=6, n_sources=4, rate=0.8, window_seconds=20, dmax=4, duration=90, seed=11
    )


def _registry(workload, copies=2):
    """6 distinct queries plus ``copies`` duplicates of each (sharing fodder)."""
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF)
    for copy in range(copies):
        for index, query in enumerate(workload.queries()):
            registry.register(
                query,
                query_id=f"dup{copy}_{index}",
                strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF,
            )
    return registry


def _run_shared(tracer):
    """One shared-subplan sharded run through a block-policy server."""
    workload = _workload()
    engine = ShardedEngine(
        _registry(workload),
        n_shards=2,
        scheduler="jit_aware",
        share_subplans=True,
    )
    server = StreamServer(
        engine, capacity=64, policy=OverloadPolicy.BLOCK, tracer=tracer
    )
    for event in workload.events():
        server.submit(event)
    server.flush()
    return server, engine


@pytest.fixture(scope="module")
def traced_shared():
    """The reference traced run every export test reads from."""
    tracer = Tracer(sample_rate=1.0, capacity=200_000, seed=0)
    server, engine = _run_shared(tracer)
    yield server, engine, tracer
    server.close()


@pytest.fixture(scope="module")
def untraced_shared():
    server, engine = _run_shared(tracer=None)
    yield server, engine
    server.close()


def _single_run(tracer=None, sample_rate=1.0):
    """One single-plan queued JIT run, optionally traced."""
    workload = generate_clique_workload(
        n_sources=4, rate=0.5, window_seconds=20, dmax=2, duration=60, seed=0
    )
    query = ContinuousQuery.from_workload(workload)
    plan = build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT)
    context = ExecutionContext(window=Window(query.window.length))
    engine = ExecutionEngine(
        plan,
        context,
        mode=ExecutionMode.QUEUED,
        scheduler=build_scheduler("jit_aware"),
    )
    if tracer is None and sample_rate is not None:
        tracer = Tracer(sample_rate=sample_rate, capacity=200_000, seed=7)
    if tracer is not None:
        engine.attach_tracer(tracer)
    report = engine.run(workload.events())
    return engine, report, tracer, plan


# ------------------------------------------------------------------ span ring


class TestSpanRing:
    def test_bounded_with_drop_accounting(self):
        ring = SpanRing(capacity=4)
        for i in range(10):
            ring.append({"i": i})
        assert len(ring) == 4
        assert ring.appended_total == 10
        assert ring.dropped_total == 6
        assert [s["i"] for s in ring.snapshot()] == [6, 7, 8, 9]

    def test_clear_keeps_totals(self):
        ring = SpanRing(capacity=4)
        ring.append({})
        ring.clear()
        assert len(ring) == 0
        assert ring.appended_total == 1

    def test_tracer_ring_eviction_counted(self):
        tracer = Tracer(sample_rate=1.0, capacity=32, seed=0)
        _single_run(tracer=tracer)
        stats = tracer.stats()
        assert stats["spans_retained"] == 32
        assert stats["spans_dropped"] > 0
        assert stats["spans_recorded"] == stats["spans_dropped"] + 32
        # Profiles aggregate outside the ring: eviction does not lose them.
        assert tracer.profiles


# ------------------------------------------------------------------ sampling


class TestSampling:
    def test_head_based_determinism(self):
        """Same seed + same workload -> the exact same traces are sampled."""
        ids = []
        for _ in range(2):
            _, _, tracer, _ = _single_run(sample_rate=0.5)
            sampled = {
                span["args"]["trace_id"]
                for span in tracer.ring.snapshot()
                if span["cat"] == SpanKind.INGEST
            }
            assert 0 < len(sampled) < tracer.traces_started
            assert tracer.traces_sampled == len(sampled)
            ids.append(sampled)
        assert ids[0] == ids[1]

    def test_rate_zero_records_nothing(self):
        _, report, tracer, _ = _single_run(sample_rate=0.0)
        assert report.results.count > 0
        stats = tracer.stats()
        assert stats["traces_started"] > 0
        assert stats["traces_sampled"] == 0
        assert stats["spans_recorded"] == 0

    def test_disabled_tracer_opens_no_trace(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin_trace(make_tuple("A", 1.0)) is None
        assert tracer.traces_started == 0
        assert not tracer.active

    def test_sampled_trace_tags_buffer_wait(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.note_buffer_wait(0.25)
        tracer.end_trace(tracer.begin_trace(make_tuple("A", 1.0)))
        tracer.end_trace(tracer.begin_trace(make_tuple("A", 2.0)))
        waits = [
            span["args"].get("buffer_wait_s")
            for span in tracer.ring.snapshot()
            if span["cat"] == SpanKind.INGEST
        ]
        assert waits == [0.25, None]

    def test_unsampled_buffer_wait_does_not_leak(self):
        """A wait noted before an unsampled trace must not tag a later one."""
        # seed=10 at rate 0.5 draws unsampled (0.571) then sampled (0.429).
        tracer = Tracer(sample_rate=0.5, seed=10)
        tracer.note_buffer_wait(9.5)
        first = tracer.begin_trace(make_tuple("A", 1.0))
        tracer.end_trace(first)
        assert not first.sampled
        second = tracer.begin_trace(make_tuple("A", 2.0))
        tracer.end_trace(second)
        assert second.sampled
        ingests = [
            span
            for span in tracer.ring.snapshot()
            if span["cat"] == SpanKind.INGEST
        ]
        assert len(ingests) == 1
        assert ingests[0]["args"]["trace_id"] == second.trace_id
        assert "buffer_wait_s" not in ingests[0]["args"]


# ----------------------------------------------------- chrome trace export


class TestChromeTraceExport:
    def test_schema_validates(self, traced_shared):
        _, _, tracer = traced_shared
        trace = validate_chrome_trace(tracer.chrome_trace())
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["traces_started"] > 0

    def test_all_pipeline_stages_present(self, traced_shared):
        _, _, tracer = traced_shared
        cats = {span.get("cat") for span in tracer.chrome_trace()["traceEvents"]}
        for kind in (
            SpanKind.INGEST,
            SpanKind.ROUTE,
            SpanKind.SHARD,
            SpanKind.SCHEDULER_POP,
            SpanKind.OPERATOR_STEP,
            SpanKind.TEE_FANOUT,
            SpanKind.FEEDBACK,
            SpanKind.MNS,
        ):
            assert kind in cats, f"no {kind} spans recorded"

    def test_tee_fanout_names_every_subscriber(self, traced_shared):
        """The shared-subtree tee span shows one probe fanning to N overlays."""
        _, engine, tracer = traced_shared
        tee_spans = [
            span
            for span in tracer.ring.snapshot()
            if span["cat"] == SpanKind.TEE_FANOUT
        ]
        assert tee_spans
        hosted = {r.query_id for shard in engine.shards for r in shard.runtimes}
        multi = [s for s in tee_spans if s["args"]["fanout"] >= 2]
        assert multi, "expected at least one tee span with fanout >= 2"
        for span in multi:
            subscribers = span["args"]["subscribers"]
            assert len(subscribers) == span["args"]["fanout"]
            assert set(subscribers) <= hosted

    def test_mns_pairs_balanced(self, traced_shared):
        _, _, tracer = traced_shared
        begins = {}
        ends = {}
        for span in tracer.ring.snapshot():
            if span["cat"] != SpanKind.MNS:
                continue
            bucket = begins if span["ph"] == "b" else ends
            bucket[span["id"]] = span
        stats = tracer.stats()
        assert stats["mns_pairs_closed"] >= 1
        assert len(ends) == stats["mns_pairs_closed"]
        assert len(begins) == len(ends) + stats["mns_spans_open"]
        for async_id, end in ends.items():
            begin = begins[async_id]
            assert begin["name"] == end["name"]
            assert begin["ts"] <= end["ts"]

    def test_scheduler_pops_carry_policy_and_depth(self, traced_shared):
        _, _, tracer = traced_shared
        pops = [
            span
            for span in tracer.ring.snapshot()
            if span["cat"] == SpanKind.SCHEDULER_POP
        ]
        assert pops
        for span in pops[:50]:
            assert span["args"]["policy"] == "jit_aware"
            assert span["args"]["ready"] >= 1

    def test_operator_steps_charge_cost_kinds(self, traced_shared):
        _, _, tracer = traced_shared
        steps = [
            span
            for span in tracer.ring.snapshot()
            if span["cat"] == SpanKind.OPERATOR_STEP
        ]
        assert steps
        charged = {
            kind
            for span in steps
            for kind in ("probe_step", "predicate_eval", "hash", "result_build")
            if span["args"].get(kind)
        }
        assert "probe_step" in charged
        assert "result_build" in charged

    def test_ingest_spans_carry_buffer_wait(self, traced_shared):
        """Server-buffered events get their queue wait on the ingest span."""
        _, _, tracer = traced_shared
        waits = [
            span["args"]["buffer_wait_s"]
            for span in tracer.ring.snapshot()
            if span["cat"] == SpanKind.INGEST and "buffer_wait_s" in span["args"]
        ]
        assert waits
        assert all(w >= 0 for w in waits)

    def test_metadata_names_tracks(self, traced_shared):
        _, _, tracer = traced_shared
        events = tracer.chrome_trace()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert {"process_name", "thread_name"} <= names
        # Every (pid, tid) used by a span is announced in the metadata.
        announced = {(e["pid"], e["tid"]) for e in meta if e["name"] == "thread_name"}
        used = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
        assert used <= announced

    def test_write_chrome_trace_round_trips(self, traced_shared, tmp_path):
        _, _, tracer = traced_shared
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"name": "x", "ph": "e", "pid": 0, "tid": 0, "ts": 1, "id": 9}
                    ]
                }
            )


# ------------------------------------------------------- observation only


class TestObservationOnly:
    def test_traced_single_run_matches_untraced(self):
        _, untraced, _, _ = _single_run(sample_rate=None)
        traced_engine, traced, tracer, _ = _single_run(sample_rate=1.0)
        assert traced.results.multiset() == untraced.results.multiset()
        assert tracer.stats()["spans_recorded"] > 0
        # The traced drain charges the same modelled costs.
        assert traced.cpu_units == untraced.cpu_units

    def test_traced_shared_run_matches_untraced(self, traced_shared, untraced_shared):
        traced_server, traced_engine, _ = traced_shared
        untraced_server, untraced_engine = untraced_shared
        hosted = {
            r.query_id for shard in traced_engine.shards for r in shard.runtimes
        }
        assert hosted
        for query_id in sorted(hosted):
            assert (
                traced_server.results_for(query_id).multiset()
                == untraced_server.results_for(query_id).multiset()
            ), f"traced run diverged for {query_id}"


# -------------------------------------------------------- telemetry bridge


class TestTelemetryBridge:
    def test_trace_families_exposed_live(self, traced_shared):
        server, _, tracer = traced_shared
        parsed = parse_exposition(server.exposition())
        stats = tracer.stats()
        assert sum(parsed["trace_traces_total"].values()) == stats["traces_started"]
        assert (
            sum(parsed["trace_traces_sampled_total"].values())
            == stats["traces_sampled"]
        )
        assert (
            sum(parsed["trace_spans_recorded_total"].values())
            == stats["spans_recorded"]
        )
        assert sum(parsed["trace_sample_rate"].values()) == 1.0
        assert sum(parsed["trace_buffer_capacity"].values()) == 200_000
        assert (
            sum(parsed["trace_buffer_occupancy"].values()) == stats["spans_retained"]
        )

    def test_trace_families_zero_without_tracer(self, untraced_shared):
        server, _ = untraced_shared
        parsed = parse_exposition(server.exposition())
        assert sum(parsed["trace_traces_total"].values()) == 0
        assert sum(parsed["trace_buffer_capacity"].values()) == 0


# --------------------------------------------------------- explain_analyze


class TestExplainAnalyze:
    def test_single_engine_report(self):
        _, report, tracer, plan = _single_run(sample_rate=1.0)
        text = explain_analyze(tracer, plan)
        assert "EXPLAIN ANALYZE" in text
        assert "steps=" in text
        assert "charges:" in text
        assert "virtual window:" in text
        # JIT joins surface their suspension counters and their gates' ledgers.
        assert "jit:" in text
        assert "mns_detected=" in text and " detections_settled=" in text
        assert "gate left: " in text and " spent=" in text and " avoided=" in text

    def test_shared_subtree_report_is_namespaced(self, traced_shared):
        """Shared-subtree profiles do not merge with same-named operators."""
        _, engine, tracer = traced_shared
        shared = [
            sub for shard in engine.shards for sub in shard.shared_subplans()
        ]
        assert shared
        sub = max(shared, key=lambda s: s.subscriber_count)
        text = explain_analyze(
            tracer,
            sub.plan,
            shard=sub.shard_id,
            label_prefix=f"shared-{sub.key}:",
        )
        assert "tee: fanout=" in text
        profile = tracer.profiles[(sub.shard_id, f"shared-{sub.key}:{sub.tee.name}")]
        assert f"steps={profile['steps']:.0f}" in text
        # The namespaced count is this subtree's own, not the shard-wide sum
        # over every co-hosted tee with the same operator name.
        merged = sum(
            p["steps"]
            for (shard_id, label), p in tracer.profiles.items()
            if shard_id == sub.shard_id and label.endswith(f":{sub.tee.name}")
        )
        if len(shared) > 1:
            assert profile["steps"] < merged

    def test_hosted_overlay_report(self, traced_shared):
        _, engine, tracer = traced_shared
        runtime = next(
            r
            for shard in engine.shards
            for r in shard.runtimes
            if r.shared is not None
        )
        # Queries whose full plan is the shared subtree have no private
        # overlay; the report then covers the subtree serving them.
        if runtime.plan is not None:
            plan, prefix = runtime.plan, f"{runtime.query_id}:"
        else:
            plan = runtime.shared.plan
            prefix = f"shared-{runtime.shared.key}:"
        text = explain_analyze(
            tracer,
            plan,
            shard=runtime.shard_id,
            query_id=runtime.query_id,
            share_hits=runtime.shared.hits,
            label_prefix=prefix,
        )
        assert f"query={runtime.query_id}" in text
        assert "shared-subplan hits:" in text


# ------------------------------------------------------------- result emit


class TestResultEmit:
    def test_sink_deliveries_recorded(self):
        _, report, tracer, _ = _single_run(sample_rate=1.0)
        emits = [
            span
            for span in tracer.ring.snapshot()
            if span["cat"] == SpanKind.RESULT_EMIT
        ]
        assert report.results.count > 0
        assert len(emits) == report.results.count
