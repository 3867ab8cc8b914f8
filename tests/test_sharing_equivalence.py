"""Tests for multi-query common subexpression sharing (docs/SHARING.md).

The bedrock invariant: with ``share_subplans=True`` every query's result
multiset is bit-identical to its standalone unshared run — under every
scheduler policy, shard count and drain mode.  On top of that, unit coverage
for signature canonicalization, overlay (selection/projection) grafting,
per-subscriber tee accounting, refcounted retirement, and a hypothesis sweep
asserting that arbitrary register/retire interleavings never leave orphan
queues, routes, scheduler orders or router subscriptions behind.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from golden import ALL_POLICIES
from repro.core.config import DetectionMode, JITConfig
from repro.engine import run_workload
from repro.multi import (
    QueryRegistry,
    ShardedEngine,
    generate_multi_query_workload,
    signature_partition,
)
from repro.operators import TeeOperator
from repro.operators.predicates import (
    AttributeCompare,
    AttributeRef,
    SelectionPredicate,
    ThetaJoinCondition,
)
from repro.plans.builder import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    PLAN_RIGHT_DEEP,
    STRATEGY_DOE,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.plans.signature import (
    canonical_condition,
    resolve_jit_config,
    signature_key,
    subplan_signature,
)
from repro.streams.generators import generate_clique_workload


#: (n_shards, drain_mode) configurations the equivalence sweep covers.
SHARD_CONFIGS = ((1, "sync"), (2, "sync"), (3, "sync"), (2, "process"))


@pytest.fixture(scope="module")
def sharing_workload():
    """24 queries over 4 streams: widths cycle (2, 2, 3) and ring starts
    cycle mod 4, so only 8 distinct sub-cliques exist — every signature is
    shared by 3 queries once strategies repeat with period 6."""
    return generate_multi_query_workload(
        n_queries=24, n_sources=4, rate=0.8, window_seconds=20, dmax=4, duration=100, seed=3
    )


@pytest.fixture(scope="module")
def sharing_events(sharing_workload):
    return sharing_workload.events()


def _registry(workload) -> QueryRegistry:
    """Register the workload's queries, alternating REF and JIT strategies."""
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(
            query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF
        )
    return registry


@pytest.fixture(scope="module")
def standalone_multisets(sharing_workload, sharing_events):
    """Ground truth: each query run alone through a synchronous engine."""
    out = {}
    for entry in _registry(sharing_workload):
        subscribed = [e for e in sharing_events if e.source in entry.sources]
        report = run_workload(entry.build_plan(), subscribed, entry.query.window.length)
        out[entry.query_id] = report.results.multiset()
    return out


# ------------------------------------------------------------------ equivalence


class TestSharingEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("n_shards,drain_mode", SHARD_CONFIGS)
    def test_shared_matches_standalone_runs(
        self, sharing_workload, sharing_events, standalone_multisets, policy, n_shards, drain_mode
    ):
        registry = _registry(sharing_workload)
        with ShardedEngine(
            registry,
            n_shards=n_shards,
            scheduler=policy,
            drain_mode=drain_mode,
            share_subplans=True,
        ) as engine:
            engine.run(sharing_events)
            shared_active = sum(s.shared_subplans_active for s in engine.shards)
            hits = sum(s.shared_subplan_hits for s in engine.shards)
            # The workload is built to overlap: sharing must actually engage.
            assert 0 < shared_active < len(registry)
            assert hits == len(registry) - shared_active
            for query_id, expected in standalone_multisets.items():
                assert engine.results_for(query_id).multiset() == expected, (
                    f"{policy}/{n_shards} shard(s)/{drain_mode}: "
                    f"query {query_id} diverged from its standalone run"
                )

    def test_sharing_on_equals_sharing_off(self, sharing_workload, sharing_events):
        """The toggle changes the physical plan layout, never the results."""
        counts = {}
        for share in (False, True):
            with ShardedEngine(
                _registry(sharing_workload),
                n_shards=2,
                scheduler="jit_aware",
                share_subplans=share,
            ) as engine:
                engine.run(sharing_events)
                counts[share] = {
                    qid: engine.results_for(qid).multiset()
                    for qid in _registry(sharing_workload).ids
                }
        assert counts[False] == counts[True]

    def test_dedup_on_one_shard(self, sharing_workload, sharing_events):
        """On one shard, hits count every registration after a group's first."""
        registry = _registry(sharing_workload)
        distinct = len({e.subplan_signature() for e in registry})
        with ShardedEngine(registry, n_shards=1, share_subplans=True) as engine:
            engine.run(sharing_events)
            shard = engine.shards[0]
            assert shard.shared_subplans_active == distinct
            assert shard.shared_subplan_hits == len(registry) - distinct
            for shared in shard.shared_subplans():
                assert shared.tee.subscriber_count == len(shared.subscribers)
                assert isinstance(shared.plan.root, TeeOperator)

    def test_tee_per_subscriber_delivery_counts(self, sharing_workload, sharing_events):
        """Every subscriber of one tee sees the full shared output stream."""
        registry = _registry(sharing_workload)
        with ShardedEngine(registry, n_shards=1, share_subplans=True) as engine:
            engine.run(sharing_events)
            for shared in engine.shards[0].shared_subplans():
                delivered = {s.query_id: s.delivered for s in shared.tee.subscribers}
                assert len(set(delivered.values())) == 1, delivered
                assert shared.tee.delivered_count == sum(delivered.values())


# ------------------------------------------------------------------ signatures


def _theta_query(left, comparator, right, window_seconds=20.0):
    base = generate_clique_workload(
        n_sources=2, rate=1.0, window_seconds=window_seconds, dmax=3, duration=10, seed=1
    )
    return ContinuousQuery(
        sources=base.names,
        window=base.window,
        predicate=type(ContinuousQuery.from_workload(base).predicate)(
            (ThetaJoinCondition(AttributeRef(*left), AttributeRef(*right), comparator),)
        ),
    )


class TestSignatureCanonicalization:
    def test_condition_order_is_irrelevant(self, sharing_workload):
        query = sharing_workload.query(2)  # a 3-source clique: 3 conditions
        assert query.n_sources == 3
        reordered = ContinuousQuery(
            sources=query.sources,
            window=query.window,
            predicate=type(query.predicate)(tuple(reversed(query.predicate.conditions))),
        )
        assert subplan_signature(query) == subplan_signature(reordered)

    def test_mirrored_theta_comparators_coincide(self):
        lt = _theta_query(("A", "x1"), "<", ("B", "x1"))
        gt = _theta_query(("B", "x1"), ">", ("A", "x1"))
        assert subplan_signature(lt) == subplan_signature(gt)
        assert canonical_condition(lt.predicate.conditions[0]) == canonical_condition(
            gt.predicate.conditions[0]
        )

    def test_equi_spellings_coincide(self):
        eq = _theta_query(("A", "x1"), "=", ("B", "x1"))
        eq2 = _theta_query(("B", "x1"), "==", ("A", "x1"))
        assert canonical_condition(eq.predicate.conditions[0]) == canonical_condition(
            eq2.predicate.conditions[0]
        )

    def test_named_shape_resolves_to_explicit_tree(self, sharing_workload):
        query = sharing_workload.query(2)
        from repro.plans.builder import paper_plan_shape

        explicit = paper_plan_shape(query.sources, PLAN_LEFT_DEEP)
        assert subplan_signature(query, shape=PLAN_LEFT_DEEP) == subplan_signature(
            query, shape=explicit
        )

    def test_differences_that_must_not_share(self, sharing_workload):
        query = sharing_workload.query(2)
        base = subplan_signature(query, strategy=STRATEGY_REF)
        assert subplan_signature(query, strategy=STRATEGY_JIT) != base
        assert subplan_signature(query, use_hash_index=True) != base
        assert subplan_signature(query, shape=PLAN_RIGHT_DEEP) != base
        # For 3 sources the bushy tree degenerates to the left-deep tree:
        # resolving named shapes first makes that coincidence share, correctly.
        assert subplan_signature(query, shape=PLAN_BUSHY) == base
        wider = ContinuousQuery(
            sources=query.sources,
            window=type(query.window)(query.window.length * 2),
            predicate=query.predicate,
        )
        assert subplan_signature(wider) != base

    def test_jit_config_resolution(self, sharing_workload):
        query = sharing_workload.query(0)
        implicit = subplan_signature(query, strategy=STRATEGY_JIT, jit_config=None)
        explicit = subplan_signature(query, strategy=STRATEGY_JIT, jit_config=JITConfig())
        assert implicit == explicit
        # REF ignores the configuration entirely.
        assert subplan_signature(query, strategy=STRATEGY_REF) == subplan_signature(
            query, strategy=STRATEGY_REF, jit_config=JITConfig()
        )

    @pytest.mark.parametrize("strategy", (STRATEGY_REF, STRATEGY_JIT, STRATEGY_DOE))
    @pytest.mark.parametrize(
        "jit_config", (None, JITConfig(detection_mode=DetectionMode.NONE, max_mns_arity=2))
    )
    def test_the_built_operators_carry_the_resolved_config(
        self, sharing_workload, strategy, jit_config
    ):
        query = sharing_workload.query(0)
        plan = build_xjoin_plan(query, strategy=strategy, jit_config=jit_config)
        resolved = resolve_jit_config(strategy, jit_config)
        assert {getattr(op, "config", None) for op in plan.join_operators} == {resolved}

    def test_selections_and_projection_are_excluded(self, sharing_workload):
        query = sharing_workload.query(0)
        filtered = ContinuousQuery(
            sources=query.sources,
            window=query.window,
            predicate=query.predicate,
            selections=(
                SelectionPredicate(
                    (AttributeCompare(AttributeRef(query.sources[0], "x1"), ">", 0),)
                ),
            ),
        )
        assert subplan_signature(query) == subplan_signature(filtered)

    def test_signature_key_is_stable_hex(self, sharing_workload):
        entry = _registry(sharing_workload).get("q0")
        key = entry.signature_key()
        assert key == signature_key(entry.subplan_signature())
        assert len(key) == 8 and int(key, 16) >= 0

    def test_share_groups_partition_the_registry(self, sharing_workload):
        registry = _registry(sharing_workload)
        groups = registry.share_groups()
        members = [qid for group in groups.values() for qid in group]
        assert sorted(members) == sorted(registry.ids)
        assert any(len(group) > 1 for group in groups.values())

    def test_signature_partition_colocates_groups(self, sharing_workload):
        registry = _registry(sharing_workload)
        for group in registry.share_groups().values():
            shards = {
                signature_partition(registry.get(qid), i, 3)
                for i, qid in enumerate(group)
            }
            assert len(shards) == 1


# ------------------------------------------------------------------ overlays


class TestOverlaySharing:
    def _filtered_registry(self, tighten=False):
        """Two queries identical below the join: one SELECT *, one filtered
        and projected.  They must share one subtree."""
        base = generate_clique_workload(
            n_sources=2, rate=1.0, window_seconds=15, dmax=3, duration=80, seed=7
        )
        plain = ContinuousQuery.from_workload(base)
        threshold = 400 if tighten else 200
        filtered = ContinuousQuery(
            sources=plain.sources,
            window=plain.window,
            predicate=plain.predicate,
            selections=(
                SelectionPredicate(
                    (AttributeCompare(AttributeRef("A", "x1"), "<", threshold),)
                ),
            ),
            projection=(AttributeRef("A", "x1"), AttributeRef("B", "x1")),
        )
        registry = QueryRegistry()
        registry.register(plain, query_id="plain", strategy=STRATEGY_REF)
        registry.register(filtered, query_id="filtered", strategy=STRATEGY_REF)
        return base, registry

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_overlay_queries_share_one_subtree(self, policy):
        base, registry = self._filtered_registry()
        events = base.events()
        expected = {
            entry.query_id: run_workload(
                entry.build_plan(), events, base.window.length
            ).results.multiset()
            for entry in registry
        }
        assert expected["plain"] != expected["filtered"]  # overlays actually bite
        with ShardedEngine(
            registry, n_shards=1, scheduler=policy, share_subplans=True
        ) as engine:
            engine.run(events)
            assert engine.shards[0].shared_subplans_active == 1
            assert engine.shards[0].shared_subplan_hits == 1
            for query_id, multiset in expected.items():
                assert engine.results_for(query_id).multiset() == multiset

    def test_overlay_runtime_wiring(self):
        _base, registry = self._filtered_registry()
        with ShardedEngine(registry, n_shards=1, share_subplans=True) as engine:
            plain = engine.runtime_for("plain")
            filtered = engine.runtime_for("filtered")
            assert plain.shared is filtered.shared  # one hosted subtree
            assert plain.plan is None  # sink-fed straight off the tee
            assert filtered.plan is not None  # private Sel + Project overlay
            assert filtered.registered.has_overlay
            names = [op.name for op in filtered.plan.operators]
            assert names == ["Sel1", "Project"]


# ------------------------------------------------------------------ retirement


class TestRefcountedRetirement:
    def test_retire_keeps_subtree_until_last_subscriber(
        self, sharing_workload, sharing_events
    ):
        registry = _registry(sharing_workload)
        with ShardedEngine(registry, n_shards=1, share_subplans=True) as engine:
            shard = engine.shards[0]
            groups = [g for g in registry.share_groups().values() if len(g) > 1]
            group = groups[0]
            mid = len(sharing_events) // 2
            for event in sharing_events[:mid]:
                engine.submit(event)
            active_before = shard.shared_subplans_active
            # Retire all but the last member: the subtree must survive.
            for query_id in group[:-1]:
                engine.retire_query(query_id)
                assert shard.shared_subplans_active == active_before
            survivor = engine.runtime_for(group[-1]).shared
            assert survivor is not None
            assert survivor.tee.subscriber_ids == (group[-1],)
            # The survivor keeps producing correct results after the churn.
            for event in sharing_events[mid:]:
                engine.submit(event)
            entry = registry.get(group[-1])
            subscribed = [e for e in sharing_events if e.source in entry.sources]
            expected = run_workload(
                entry.build_plan(), subscribed, entry.query.window.length
            ).results.multiset()
            assert engine.results_for(group[-1]).multiset() == expected
            # Last subscriber out tears the subtree down.
            engine.retire_query(group[-1])
            assert shard.shared_subplans_active == active_before - 1

    def test_retire_everything_leaves_no_orphans(self, sharing_workload, sharing_events):
        registry = _registry(sharing_workload)
        with ShardedEngine(registry, n_shards=2, share_subplans=True) as engine:
            for event in sharing_events[:200]:
                engine.submit(event)
            for query_id in list(registry.ids):
                engine.retire_query(query_id)
            _assert_no_orphans(engine)

    def test_add_query_grafts_onto_live_subtree(self, sharing_workload, sharing_events):
        registry = _registry(sharing_workload)
        entries = list(registry)
        late = entries[-1]
        boot = QueryRegistry()
        for entry in entries[:-1]:
            boot.register(entry.query, query_id=entry.query_id, strategy=entry.strategy)
        with ShardedEngine(boot, n_shards=1, share_subplans=True) as engine:
            shard = engine.shards[0]
            hits_before = shard.shared_subplan_hits
            active_before = shard.shared_subplans_active
            runtime = engine.add_query(
                boot.register(late.query, query_id=late.query_id, strategy=late.strategy)
            )
            # q23 repeats an earlier signature: it grafts, never re-hosts.
            assert shard.shared_subplans_active == active_before
            assert shard.shared_subplan_hits == hits_before + 1
            assert runtime.shared is not None
            for event in sharing_events:
                engine.submit(event)
            expected = run_workload(
                late.build_plan(),
                [e for e in sharing_events if e.source in late.sources],
                late.query.window.length,
            ).results.multiset()
            assert engine.results_for(late.query_id).multiset() == expected


def _assert_no_orphans(engine: ShardedEngine) -> None:
    """After retiring every query, no queues, routes, scheduler orders,
    shared subtrees or router subscriptions may remain anywhere."""
    for shard in engine.shards:
        assert shard.runtimes == []
        assert shard.queue_count == 0
        assert shard.shared_subplans_active == 0
        assert shard.scheduler.ready_count() == 0
        assert not shard._routes
    assert engine.router.sources == []
    assert all(
        engine.router.subscriber_count(s) == 0 for s in ("A", "B", "C", "D")
    )


class TestRegisterRetireSweep:
    @settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        data=st.data(),
        n_shards=st.integers(min_value=1, max_value=3),
        share=st.booleans(),
    )
    def test_arbitrary_interleavings_tear_down_cleanly(
        self, data, n_shards, share, sharing_workload, sharing_events
    ):
        registry = _registry(sharing_workload)
        entries = list(registry)
        boot = QueryRegistry()
        for entry in entries[:6]:
            boot.register(entry.query, query_id=entry.query_id, strategy=entry.strategy)
        with ShardedEngine(boot, n_shards=n_shards, share_subplans=share) as engine:
            live = list(boot.ids)
            pending = entries[6:12]
            cursor = 0
            steps = data.draw(
                st.lists(st.sampled_from(["add", "retire", "events"]), max_size=10)
            )
            for step in steps:
                if step == "add" and pending:
                    entry = pending.pop(0)
                    engine.add_query(
                        boot.register(
                            entry.query, query_id=entry.query_id, strategy=entry.strategy
                        )
                    )
                    live.append(entry.query_id)
                elif step == "retire" and live:
                    victim = data.draw(st.sampled_from(live))
                    live.remove(victim)
                    engine.retire_query(victim)
                elif step == "events":
                    for event in sharing_events[cursor : cursor + 40]:
                        engine.submit(event)
                    cursor += 40
            for query_id in list(live):
                engine.retire_query(query_id)
            _assert_no_orphans(engine)
