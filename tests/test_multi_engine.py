"""Tests for the sharded multi-query engine (repro.multi).

The central property: K queries served through a :class:`ShardedEngine` —
with 1 shard and N shards, inline and on worker processes, under both
scheduler policies — produce exactly the same per-query results as K
independent :class:`ExecutionEngine` runs.  Plus unit coverage for the registry, the
shared virtual clock, the router, placement, the push-based ingestion
paths, and the reusable ``run_workload`` entry point.
"""

from __future__ import annotations

import pytest

from golden import ALL_POLICIES
from helpers import MinimalFIFOScheduler
from repro.engine import ExecutionMode, run_workload
from repro.engine.results import result_key
from repro.multi import (
    MultiQueryWorkload,
    QueryRegistry,
    ShardedEngine,
    SharedVirtualClock,
    StreamRouter,
    generate_multi_query_workload,
)
from repro.multi.partition import round_robin_partition, signature_partition
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF, build_xjoin_plan
from repro.plans.query import ContinuousQuery
from repro.scheduler import build_scheduler
from repro.streams.generators import generate_clique_workload
from repro.streams.schema import SourceSchema, StreamCatalog
from repro.streams.time import Window


#: (n_shards, drain_mode) configurations the equivalence sweep covers.
SHARD_CONFIGS = ((1, "sync"), (2, "sync"), (3, "sync"), (2, "process"))


@pytest.fixture(scope="module")
def shared_workload():
    """Eight standing queries over five shared streams, dense enough to
    exercise suspension/resumption traffic (small dmax, live window)."""
    return generate_multi_query_workload(
        n_queries=8, n_sources=5, rate=0.8, window_seconds=20, dmax=4, duration=120, seed=3
    )


@pytest.fixture(scope="module")
def shared_events(shared_workload):
    return shared_workload.events()


def _registry(workload: MultiQueryWorkload) -> QueryRegistry:
    """Register the workload's queries, alternating REF and JIT strategies."""
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(
            query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF
        )
    return registry


@pytest.fixture(scope="module")
def standalone_multisets(shared_workload, shared_events):
    """Ground truth: each query run alone through a synchronous engine."""
    out = {}
    for entry in _registry(shared_workload):
        subscribed = [e for e in shared_events if e.source in entry.sources]
        report = run_workload(entry.build_plan(), subscribed, entry.query.window.length)
        out[entry.query_id] = report.results.multiset()
    return out


# ------------------------------------------------------------------ equivalence


class TestShardedEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("n_shards,drain_mode", SHARD_CONFIGS)
    def test_matches_standalone_runs(
        self, shared_workload, shared_events, standalone_multisets, policy, n_shards, drain_mode
    ):
        registry = _registry(shared_workload)
        with ShardedEngine(
            registry, n_shards=n_shards, scheduler=policy, drain_mode=drain_mode
        ) as engine:
            report = engine.run(shared_events)
            for query_id, expected in standalone_multisets.items():
                assert engine.results_for(query_id).multiset() == expected, (
                    f"{policy}/{n_shards} shard(s)/{drain_mode}: "
                    f"query {query_id} diverged from its standalone run"
                )
        assert report.events_ingested == len(shared_events)
        assert report.total_results == sum(
            sum(ms.values()) for ms in standalone_multisets.values()
        )

    def test_push_api_matches(self, shared_workload, shared_events, standalone_multisets):
        """submit per event, then flush, produces what run() produces."""
        registry = _registry(shared_workload)
        with ShardedEngine(registry, n_shards=2) as engine:
            for event in shared_events:
                engine.submit(event)
            engine.flush()
            for query_id, expected in standalone_multisets.items():
                assert engine.results_for(query_id).multiset() == expected

    def test_process_runs_are_deterministic(self, shared_workload, shared_events):
        counts = []
        for _ in range(2):
            with ShardedEngine(
                _registry(shared_workload), n_shards=3, drain_mode="process"
            ) as engine:
                counts.append(engine.run(shared_events).result_counts())
        assert counts[0] == counts[1]

    def test_per_query_windows_are_respected(self):
        """Two queries with different windows on the same streams coexist."""
        base = generate_clique_workload(
            n_sources=2, rate=1.0, window_seconds=10, dmax=3, duration=80, seed=5
        )
        events = base.events()
        registry = QueryRegistry()
        expected = {}
        for window_seconds in (5.0, 30.0):
            query = ContinuousQuery(
                sources=base.names,
                window=Window(window_seconds),
                predicate=ContinuousQuery.from_workload(base).predicate,
            )
            entry = registry.register(query, query_id=f"w{window_seconds:g}")
            expected[entry.query_id] = run_workload(
                entry.build_plan(), events, window_seconds
            ).results.multiset()
        assert expected["w5"] != expected["w30"]  # windows actually differ
        with ShardedEngine(registry, n_shards=2) as engine:
            engine.run(events)
            for query_id, multiset in expected.items():
                assert engine.results_for(query_id).multiset() == multiset


# ------------------------------------------------------------------ components


class TestQueryRegistry:
    def test_auto_ids_and_lookup(self, shared_workload):
        registry = _registry(shared_workload)
        assert registry.ids == [f"q{i}" for i in range(8)]
        assert "q3" in registry and "nope" not in registry
        assert registry.get("q3").query_id == "q3"
        with pytest.raises(KeyError, match="known ids"):
            registry.get("nope")

    def test_duplicate_id_rejected(self, shared_workload):
        registry = QueryRegistry()
        query = shared_workload.query(0)
        registry.register(query, query_id="dup")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(query, query_id="dup")

    def test_register_cql(self):
        catalog = StreamCatalog.from_schemas(
            [SourceSchema.of("A", ("x",)), SourceSchema.of("B", ("x",))]
        )
        registry = QueryRegistry()
        entry = registry.register_cql(
            "SELECT * FROM A [RANGE 60 seconds], B [RANGE 60 seconds] WHERE A.x = B.x",
            catalog=catalog,
            strategy=STRATEGY_REF,
        )
        assert entry.sources == frozenset({"A", "B"})
        assert registry.sources == {"A", "B"}

    def test_single_source_query_rejected(self):
        from repro.operators.predicates import JoinPredicate

        query = ContinuousQuery(
            sources=("A",), window=Window(10.0), predicate=JoinPredicate(())
        )
        registry = QueryRegistry()
        with pytest.raises(ValueError, match="single source"):
            registry.register(query)

    def test_build_plan_is_fresh_per_call(self, shared_workload):
        entry = _registry(shared_workload).get("q0")
        plan_a, plan_b = entry.build_plan(), entry.build_plan()
        assert plan_a.operators[0] is not plan_b.operators[0]


class TestSharedVirtualClock:
    def test_views_cannot_outrun_watermark(self):
        clock = SharedVirtualClock()
        view = clock.view("s0")
        clock.observe(5.0)
        assert view.advance_to(5.0) == 5.0
        with pytest.raises(RuntimeError, match="ahead of the ingestion watermark"):
            view.advance_to(7.0)

    def test_min_progress_tracks_slowest_shard(self):
        clock = SharedVirtualClock()
        fast, slow = clock.view("fast"), clock.view("slow")
        clock.observe(10.0)
        fast.advance_to(10.0)
        slow.advance_to(4.0)
        assert clock.watermark == 10.0
        assert clock.min_progress == 4.0

    def test_reset(self):
        clock = SharedVirtualClock()
        view = clock.view("s0")
        clock.observe(9.0)
        view.advance_to(9.0)
        clock.reset()
        assert clock.watermark == 0.0
        assert view.now == 0.0


class TestRouterAndPartition:
    def test_router_dedups_and_sorts(self):
        router = StreamRouter()
        for shard in (2, 0, 2, 1):
            router.subscribe("A", shard)
        assert router.shards_for("A") == (0, 1, 2)
        assert router.shards_for("unknown") == ()
        router.subscribe("A", 3)  # cache invalidation
        assert router.shards_for("A") == (0, 1, 2, 3)

    def test_retire_query_decrements_router_subscriptions(self, shared_workload):
        """Regression: retiring a query used to leave the router's
        ``subscriber_count`` (and hence fair-shed weights and shard fan-out)
        stuck at registration-time values forever."""
        registry = _registry(shared_workload)
        with ShardedEngine(registry, n_shards=2) as engine:
            router = engine.router
            before = {s: router.subscriber_count(s) for s in router.sources}
            retired = engine.retire_query("q0")
            for source in retired.registered.sources:
                assert router.subscriber_count(source) == before[source] - 1
            for query_id in registry.ids[1:]:
                engine.retire_query(query_id)
            assert router.sources == []
            assert all(router.subscriber_count(s) == 0 for s in before)
            assert router.shards_for(next(iter(before))) == ()

    def test_unsubscribe_unknown_source_rejected(self):
        router = StreamRouter()
        router.subscribe("A", 0)
        with pytest.raises(KeyError, match="no subscription"):
            router.unsubscribe("Z", 0, shard_still_subscribed=False)
        router.unsubscribe("A", 0, shard_still_subscribed=False)
        with pytest.raises(KeyError, match="no subscription"):
            router.unsubscribe("A", 0, shard_still_subscribed=False)

    def test_round_robin_spreads_evenly(self, shared_workload):
        registry = _registry(shared_workload)
        with ShardedEngine(registry, n_shards=4) as engine:
            loads = [len(shard.runtimes) for shard in engine.shards]
        assert loads == [2, 2, 2, 2]

    @pytest.mark.parametrize("share", (False, True), ids=("unshared", "shared"))
    @pytest.mark.parametrize("n_shards", (1, 2, 3, 4))
    def test_placement_is_derived_from_sharing(self, shared_workload, n_shards, share):
        registry = _registry(shared_workload)
        place = signature_partition if share else round_robin_partition
        with ShardedEngine(registry, n_shards=n_shards, share_subplans=share) as engine:
            placed = {qid: engine.runtime_for(qid).shard_id for qid in registry.ids}
        assert placed == {
            entry.query_id: place(entry, index, n_shards)
            for index, entry in enumerate(registry)
        }

    def test_shared_placement_colocates_each_share_group(self, shared_workload):
        registry = QueryRegistry()
        for query in shared_workload.queries():
            registry.register(query)  # one strategy, so equal joins share
        groups = [ids for ids in registry.share_groups().values() if len(ids) > 1]
        assert groups
        with ShardedEngine(registry, n_shards=4, share_subplans=True) as engine:
            for ids in groups:
                assert len({engine.runtime_for(qid).shard_id for qid in ids}) == 1

    @pytest.mark.parametrize("share", (False, True), ids=("unshared", "shared"))
    def test_add_query_continues_the_placement_index(self, shared_workload, share):
        # A query added to a live engine is placed as if it had been
        # registered last: its index is the count of queries placed so far.
        registry = QueryRegistry()
        queries = shared_workload.queries()
        for query in queries[:5]:
            registry.register(query)
        place = signature_partition if share else round_robin_partition
        with ShardedEngine(registry, n_shards=3, share_subplans=share) as engine:
            for index, query in enumerate(queries[5:], start=5):
                entry = registry.register(query)
                runtime = engine.add_query(entry)
                assert runtime.shard_id == place(entry, index, 3)


class TestShardedEngineAPI:
    def test_events_for_unsubscribed_sources_are_counted_dropped(self, shared_workload):
        registry = QueryRegistry()
        registry.register(shared_workload.query(0))  # subscribes a source subset
        events = shared_workload.events()
        subscribed = registry.sources
        with ShardedEngine(registry) as engine:
            report = engine.run(events)
        outside = sum(1 for e in events if e.source not in subscribed)
        assert outside > 0
        assert report.dropped_events == outside
        assert report.events_ingested == len(events)

    def test_scheduler_instance_rejected(self, shared_workload):
        registry = _registry(shared_workload)
        with pytest.raises(TypeError, match="factory"):
            ShardedEngine(registry, n_shards=2, scheduler=build_scheduler("fifo"))

    @pytest.mark.parametrize("drain_mode", ("sync", "process"))
    def test_policy_of_only_the_documented_methods(
        self, shared_workload, shared_events, drain_mode
    ):
        """A policy that implements the four delta/decision methods over the
        inherited ready map runs everywhere a shipped one does: it serves the
        same results as ``fifo`` and the shard snapshot reads its ready set."""
        runs = {}
        for name, scheduler in (("fifo", "fifo"), ("minimal", MinimalFIFOScheduler)):
            with ShardedEngine(
                _registry(shared_workload), n_shards=2, scheduler=scheduler,
                drain_mode=drain_mode,
            ) as engine:
                engine.run(shared_events)
                progress = [shard.snapshot()["progress"] for shard in engine.shards]
                runs[name] = {
                    query_id: [result_key(t) for t in engine.results_for(query_id).results]
                    for query_id in engine.report().queries
                }
            assert [p["ready_queues"] for p in progress] == [0, 0]
        assert sum(map(len, runs["fifo"].values())) > 0
        assert runs["minimal"] == runs["fifo"]

    def test_scheduler_factory_accepted(self, shared_workload, shared_events):
        registry = _registry(shared_workload)
        with ShardedEngine(
            registry, n_shards=2, scheduler=lambda: build_scheduler("jit_aware")
        ) as engine:
            report = engine.run(shared_events)
        assert report.total_results > 0

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError, match="no registered queries"):
            ShardedEngine(QueryRegistry())

    def test_closed_engine_rejects_submits(self, shared_workload, shared_events):
        engine = ShardedEngine(_registry(shared_workload))
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(shared_events[0])

    def test_worker_failure_surfaces_on_close(self, shared_workload, shared_events):
        """A worker that dies mid-run must not let close() succeed silently."""
        engine = ShardedEngine(_registry(shared_workload), n_shards=2, drain_mode="process")
        engine.submit(shared_events[0])
        engine.flush()
        # An event ahead of the watermark the worker is told about: its shard
        # clock refuses to run ahead, so the worker dies on it, unflushed.
        engine._backend.dispatch(0, shared_events[-1], None, watermark=0.0)
        with pytest.raises(RuntimeError, match="worker failed"):
            engine.close()
        engine.close()  # already closed: stays a no-op, raises nothing

    def test_report_shape(self, shared_workload, shared_events):
        registry = _registry(shared_workload)
        with ShardedEngine(registry, n_shards=3) as engine:
            report = engine.run(shared_events)
        assert report.n_queries == 8 and report.n_shards == 3
        assert set(report.result_counts()) == set(registry.ids)
        assert len(report.shard_metrics) == 3
        assert report.cpu_units > 0
        assert "8 queries / 3 shard(s) [sync]" in report.summary()
        per_shard = {}
        for query_report in report.queries.values():
            per_shard.setdefault(query_report.shard_id, 0)
            per_shard[query_report.shard_id] += query_report.result_count
        for shard_id, metrics in enumerate(report.shard_metrics):
            assert metrics.results_produced == per_shard.get(shard_id, 0)


class TestRunWorkloadReuse:
    def test_prebuilt_single_engine(self, shared_workload, shared_events):
        """run_workload drives a pre-built ExecutionEngine unchanged."""
        from repro.context import ExecutionContext
        from repro.engine.engine import ExecutionEngine

        entry = _registry(shared_workload).get("q0")
        subscribed = [e for e in shared_events if e.source in entry.sources]
        expected = run_workload(
            entry.build_plan(), subscribed, entry.query.window.length
        ).results.multiset()
        context = ExecutionContext(window=entry.query.window)
        engine = ExecutionEngine(entry.build_plan(), context, mode=ExecutionMode.QUEUED)
        report = run_workload(events=subscribed, engine=engine)
        assert report.results.multiset() == expected

    def test_sharded_engine_through_run_workload(self, shared_workload, shared_events):
        registry = _registry(shared_workload)
        with ShardedEngine(registry, n_shards=2) as engine:
            report = run_workload(events=shared_events, engine=engine)
        assert report.events_ingested == len(shared_events)

    def test_engine_and_plan_are_exclusive(self, shared_workload, shared_events):
        entry = _registry(shared_workload).get("q0")
        with ShardedEngine(_registry(shared_workload)) as engine:
            with pytest.raises(ValueError, match="not both"):
                run_workload(
                    entry.build_plan(), shared_events, 20.0, engine=engine
                )
            # Construction parameters are fixed by the pre-built engine and
            # must be rejected rather than silently ignored.
            with pytest.raises(ValueError, match="not both"):
                run_workload(events=shared_events, engine=engine, keep_results=False)
            with pytest.raises(ValueError, match="not both"):
                run_workload(
                    events=shared_events, engine=engine, mode=ExecutionMode.QUEUED
                )
            with pytest.raises(ValueError, match="not both"):
                run_workload(
                    events=shared_events,
                    engine=engine,
                    scheduler=build_scheduler("fifo"),
                )
        with pytest.raises(ValueError, match="needs either"):
            run_workload(events=shared_events)


class TestMultiQueryWorkload:
    def test_queries_are_valid_subcliques(self, shared_workload):
        for k, query in enumerate(shared_workload.queries()):
            assert set(query.sources) <= set(shared_workload.base.names)
            n = query.n_sources
            assert len(query.predicate.conditions) == n * (n - 1) // 2

    def test_subscription_counts_cover_all_queries(self, shared_workload):
        counts = shared_workload.subscription_counts()
        widths = [
            len(shared_workload.query_sources(k))
            for k in range(shared_workload.n_queries)
        ]
        assert sum(counts.values()) == sum(widths)

    def test_invalid_width_rejected(self, shared_workload):
        with pytest.raises(ValueError, match="width"):
            MultiQueryWorkload(
                base=shared_workload.base, n_queries=2, sources_per_query=(9,)
            )


# ------------------------------------------------------------------ shard retirement


class TestShardPlanRetirement:
    def _workload(self):
        return generate_multi_query_workload(
            n_queries=2, n_sources=3, rate=0.8, window_seconds=20, dmax=4,
            duration=80, seed=7,
        )

    def _registry(self, workload):
        registry = QueryRegistry()
        for query in workload.queries():
            registry.register(query)
        return registry

    def _standalone_q0(self, workload, events):
        q0 = QueryRegistry().register(workload.query(0), query_id="q0")
        subscribed = [e for e in events if e.source in q0.sources]
        return run_workload(
            q0.build_plan(), subscribed, q0.query.window.length
        ).results.multiset()

    def test_retire_mid_run_preserves_survivor(self):
        workload = self._workload()
        events = workload.events()
        half = len(events) // 2
        registry = self._registry(workload)
        with ShardedEngine(registry, n_shards=1, scheduler="jit_aware") as engine:
            shard = engine.shards[0]
            scheduler = shard.scheduler
            for event in events[:half]:
                engine.submit(event)
            # Boost one of q1's operators, so retirement has a boost to drop.
            (q1,) = (runtime for runtime in shard.runtimes if runtime.query_id == "q1")
            boosted = q1.templates[0].operator
            scheduler.notify_feedback(producer=boosted, consumer=boosted, kind="resume")
            assert id(boosted) in scheduler._boosts
            retired = shard.retire_plan("q1")
            retired_orders = {t.order for t in retired.templates}
            retired_ops = {id(t.operator) for t in retired.templates}
            assert retired_orders and retired_ops
            assert retired.query_id == "q1"
            partial_count = retired.collector.count
            for event in events[half:]:
                engine.submit(event)
            survivor = engine.results_for("q0").multiset()
            # The retired plan processed nothing after retirement.
            assert retired.collector.count == partial_count
            assert len(shard.runtimes) == 1
            # The scheduler holds no retired identity: no order of q1 in the
            # ready set or either heap, no operator of q1 in the per-operator
            # index or the boosts.
            for orders in (
                scheduler._ready,
                scheduler._fifo_heap._keys,
                scheduler._boost_heap._keys,
            ):
                assert not retired_orders & set(orders)
            assert not retired_ops & set(scheduler._by_op)
            assert not retired_ops & set(scheduler._boosts)
            # The archived context no longer feeds the shard's scheduler.
            assert scheduler.notify_feedback not in retired.context.feedback_listeners
        # The survivor matches a standalone run exactly.
        assert survivor == self._standalone_q0(workload, events)
        assert sum(survivor.values()) > 0

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_retire_under_every_policy(self, policy):
        workload = self._workload()
        events = workload.events()
        with ShardedEngine(self._registry(workload), n_shards=1, scheduler=policy) as engine:
            for event in events[:10]:
                engine.submit(event)
            retired = engine.retire_query("q0")
            for event in events[10:30]:
                engine.submit(event)
            assert set(engine.report().queries) == {"q1"}
            assert retired.query_id == "q0"
        # Retiring before any event was processed must work too.
        with ShardedEngine(self._registry(workload), n_shards=1, scheduler=policy) as engine:
            engine.retire_query("q1")
            for event in events[:10]:
                engine.submit(event)

    @pytest.mark.parametrize("drain_mode", ("sync", "process"))
    def test_retire_query_through_engine(self, drain_mode):
        """ShardedEngine.retire_query brings the shard to a barrier before
        unwiring."""
        workload = self._workload()
        events = workload.events()
        half = len(events) // 2
        with ShardedEngine(
            self._registry(workload), n_shards=1, drain_mode=drain_mode
        ) as engine:
            for event in events[:half]:
                engine.submit(event)
            retired = engine.retire_query("q1")
            frozen_count = retired.collector.count
            for event in events[half:]:
                engine.submit(event)
            engine.flush()
            assert retired.collector.count == frozen_count
            assert set(engine.report().queries) == {"q0"}
            survivor = engine.results_for("q0").multiset()
        assert survivor == self._standalone_q0(workload, events)

    def test_retire_unknown_or_pending_rejected(self, tuple_factory):
        with ShardedEngine(self._registry(self._workload()), n_shards=1) as engine:
            shard = engine.shards[0]
            with pytest.raises(KeyError, match="hosts no query"):
                shard.retire_plan("nope")
            queue = shard.runtimes[0].templates[0].queue
            queue.push(tuple_factory("A", 1.0, x=1))
            with pytest.raises(RuntimeError, match="queued tuples"):
                shard.retire_plan(shard.runtimes[0].query_id)
            queue.pop()  # restore quiescence so close() is clean
