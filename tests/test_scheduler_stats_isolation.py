"""Scheduler stats isolation across ``retire`` + re-host cycles.

A long-lived multi-plan domain churns plans (registration, live migration,
deregistration).  Three isolation properties must hold:

* ``retire`` drops a retired plan's boost state, so a later plan whose
  operators happen to reuse the same ``id()`` can never inherit a boost;
* a retired (archived) runtime's context is disconnected from the shard's
  scheduler — straggler feedback replayed through it must not mutate the
  live domain's ``stats()`` counters;
* ``stats()`` counters are *domain-lifetime* totals: retiring a plan does
  not zero them, and a re-hosted plan accumulates into the same domain
  totals rather than resurrecting retired per-operator state.
"""

from __future__ import annotations

import pytest

from helpers import StubOperator, ready_input
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import STRATEGY_JIT
from repro.scheduler import JITAwareScheduler


def _workload():
    return generate_multi_query_workload(
        n_queries=4, n_sources=4, rate=0.8, window_seconds=20, dmax=4, duration=90, seed=11
    )


def _registry(workload):
    registry = QueryRegistry()
    for query in workload.queries():
        registry.register(query, strategy=STRATEGY_JIT)
    return registry


# --------------------------------------------------------- unit: boost state


class TestBoostRetirement:
    def test_retire_drops_the_operators_boost(self, context):
        scheduler = JITAwareScheduler(boost_steps=8)
        boosted = StubOperator("retiring")
        item = ready_input(context, "R", ts=5.0, order=0, operator=boosted)
        scheduler.on_ready(item)
        scheduler.notify_feedback(boosted, StubOperator("x"), "resume")
        assert scheduler._boosts
        scheduler.retire((item,))
        assert not scheduler._boosts
        assert scheduler.ready_count() == 0
        # Post-retire scheduling is pure FIFO: a fresh plan's operators win
        # by head age, never by a boost inherited from the retired plan.
        young = ready_input(context, "Y", ts=9.0, order=1)
        old = ready_input(context, "O", ts=1.0, order=2)
        scheduler.on_ready(young)
        scheduler.on_ready(old)
        assert scheduler.pop_next() is old

    def test_partial_retire_keeps_live_ports_boost(self, context):
        """Retiring one input of a still-hosted operator keeps its boost."""
        scheduler = JITAwareScheduler(boost_steps=8)
        operator = StubOperator("two-port")
        left = ready_input(context, "L", ts=1.0, order=0, operator=operator)
        right = ready_input(context, "R", ts=2.0, order=1, operator=operator)
        scheduler.on_ready(left)
        scheduler.on_ready(right)
        scheduler.notify_feedback(operator, StubOperator("x"), "resume")
        scheduler.retire((left,))
        assert id(operator) in scheduler._boosts
        other = ready_input(context, "A", ts=0.5, order=2)
        scheduler.on_ready(other)
        # The surviving port is still boosted ahead of the older FIFO head.
        assert scheduler.pop_next() is right

    def test_stats_are_domain_lifetime_totals(self, context):
        scheduler = JITAwareScheduler(boost_steps=1)
        boosted = StubOperator("b")
        item = ready_input(context, "B", ts=1.0, order=0, operator=boosted)
        scheduler.on_ready(item)
        scheduler.notify_feedback(boosted, StubOperator("x"), "resume")
        assert scheduler.pop_next() is item
        before = scheduler.stats()
        assert before == {"boosts_granted": 1, "boosted_servings": 1}
        scheduler.retire((item,))
        # Retire affects per-operator state only, never the domain totals.
        assert scheduler.stats() == before


# ------------------------------------------- engine: archived-context fences


class TestRetiredContextIsolation:
    def test_archived_context_cannot_mutate_stats(self):
        workload = _workload()
        events = workload.events()
        half = len(events) // 2
        with ShardedEngine(
            _registry(workload), n_shards=1, scheduler="jit_aware"
        ) as engine:
            for event in events[:half]:
                engine.submit(event)
            shard = engine.shards[0]
            retired = engine.retire_query("q1")
            before = dict(shard.scheduler.stats())
            # A straggler (replayed/migrated runtime) firing feedback through
            # the archived context must not reach the live scheduler.
            retired.context.notify_feedback(StubOperator("p"), StubOperator("c"), "suspend")
            assert shard.scheduler.stats() == before
            for event in events[half:]:
                engine.submit(event)

    def test_shared_subtree_context_detached_with_last_subscriber(self):
        workload = _workload()
        events = workload.events()
        registry = _registry(workload)
        # One duplicate of q0: two subscribers on one shared subtree.
        registry.register(workload.query(0), query_id="dup0", strategy=STRATEGY_JIT)
        with ShardedEngine(
            registry, n_shards=1, scheduler="jit_aware", share_subplans=True
        ) as engine:
            shard = engine.shards[0]
            for event in events[: len(events) // 2]:
                engine.submit(event)
            shared = next(
                r.shared for r in shard.runtimes if r.query_id == "q0"
            )
            assert set(shared.subscribers) == {"q0", "dup0"}
            engine.retire_query("q0")
            # Refcounted: the survivor keeps the subtree (and its listener).
            assert shard.shared_subplans_active >= 1
            engine.retire_query("dup0")
            before = dict(shard.scheduler.stats())
            shared.context.notify_feedback(StubOperator("p"), StubOperator("c"), "suspend")
            assert shard.scheduler.stats() == before

    def test_rehost_cycle_leaves_no_stale_boost_keys(self):
        """After churn, every boost entry belongs to a live operator."""
        workload = _workload()
        events = workload.events()
        third = len(events) // 3
        registry = _registry(workload)
        with ShardedEngine(
            registry, n_shards=1, scheduler="jit_aware"
        ) as engine:
            shard = engine.shards[0]
            for event in events[:third]:
                engine.submit(event)
            engine.retire_query("q2")
            granted_mid = shard.scheduler.stats()["boosts_granted"]
            rehosted = QueryRegistry().register(
                workload.query(2), query_id="q2b", strategy=STRATEGY_JIT
            )
            engine.add_query(rehosted)
            for event in events[third:]:
                engine.submit(event)
            live = {
                id(t.operator)
                for r in shard.runtimes
                for t in r.templates
            }
            assert set(shard.scheduler._boosts) <= live
            # The re-hosted plan accumulates into the same domain totals.
            assert shard.scheduler.stats()["boosts_granted"] >= granted_mid
            counts = {r.query_id: r.collector.count for r in shard.runtimes}
            assert "q2b" in counts
