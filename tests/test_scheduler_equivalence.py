"""Scheduler correctness: golden schedules, a linear-scan differential, policy rules.

* ``golden.json`` pins what both policies (``fifo``, ``jit_aware``) produce
  on a single plan queued on a one-query shard and on 1- and 2-shard sync
  engines (with and without shared sub-plans), in three parts: the schedule
  (per-shard pop order + per-query result sequences, one digest),
  ``cpu_units`` and the scheduler-step count.
  A mismatch names the part, so "a scheduling decision changed" and "a
  modelled cost moved" are different failures; ``python -m tests.golden
  --check|--record`` (``tests/golden.py``) lists what moved and re-records.
* The shipped heap policies must pop in exactly the order of the test-only
  :class:`helpers.LinearScanScheduler` (``min()`` over a plain dict), driven
  through the same drain loop via ``scheduler=``.  Deterministic cases are
  tier-1; the hypothesis sweep (``slow``) explores random workloads nightly.
* The §III-B rules the policies implement: a *suspension* boosts the handling
  (downstream) operator, a *resumption* the producer; a boost decays only when
  the boosted operator is served, and the oldest boosted head wins.
* The :class:`~repro.scheduler.OperatorScheduler` contract, kept by both
  policies, the linear-scan reference and a policy that implements only the
  four delta/decision methods: the inherited ready map tracks every delta,
  ``retire`` drops exactly the retired inputs and their boosts, and with no
  feedback every pop is the oldest ready head.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from golden import ALL_POLICIES, SHARDED_CONFIGS
from helpers import (
    LinearScanScheduler,
    MinimalFIFOScheduler,
    StubOperator,
    ready_input,
    run_queued,
)
from repro.engine import run_workload
from repro.engine.results import result_multiset
from repro.plans.builder import STRATEGY_JIT, build_xjoin_plan
from repro.plans.query import ContinuousQuery
from repro.scheduler import JITAwareScheduler, build_scheduler
from repro.streams.generators import generate_clique_workload
from repro.streams.tuples import AtomicTuple


# ------------------------------------------------------------------ recorded runs


class TestGoldenSchedules:
    """Every policy still produces the recorded schedule, bit for bit."""

    @pytest.mark.parametrize("config", ("single",) + tuple(SHARDED_CONFIGS))
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_schedule_digest(self, policy, config):
        run = golden.run(lambda: build_scheduler(policy), config)
        assert sum(len(orders) for orders in run[0]) == run[3] > 0
        assert sum(len(tuples) for tuples in run[1].values()) > 0
        recorded = golden.load()["schedules"][golden.schedule_key(policy, config)]
        assert golden.schedule_record(run) == recorded


# ------------------------------------------------------------------ linear-scan differential


#: name -> (heap policy factory, linear-scan reference factory)
VARIANTS = {
    policy: ((lambda p=policy: build_scheduler(p)), (lambda p=policy: LinearScanScheduler(p)))
    for policy in ALL_POLICIES
}
VARIANTS["jit_aware-boost2"] = (
    lambda: JITAwareScheduler(boost_steps=2),
    lambda: LinearScanScheduler("jit_aware", boost_steps=2),
)


class TestLinearScanDifferential:
    """Heap policies pop exactly what ``min()`` over the ready set pops."""

    @pytest.mark.parametrize("config", ("single", "2-sync", "2-shared-sync"))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_same_pops_results_and_cost(self, variant, config):
        indexed, linear = VARIANTS[variant]
        assert golden.run(indexed, config) == golden.run(linear, config)

    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(
        n_sources=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.sampled_from((0.5, 1.0, 2.0)),
        dmax=st.integers(min_value=2, max_value=8),
        variant=st.sampled_from(sorted(VARIANTS)),
    )
    def test_random_workloads(self, n_sources, seed, rate, dmax, variant):
        indexed, linear = VARIANTS[variant]
        shape = dict(n_sources=n_sources, rate=rate, dmax=dmax, duration=50, seed=seed)
        assert golden.single_plan_run(indexed(), **shape) == golden.single_plan_run(
            linear(), **shape
        )

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_rotation_survives_unready_ready_churn(self, context, policy):
        # Every pop empties the served queue (on_unready) and the refill
        # re-registers it (on_ready) with a newer head: the heap policy must
        # track the linear scan's pops through the churn, and the refilled
        # heads make both rotate through the three inputs.
        served = []
        for scheduler in (build_scheduler(policy), LinearScanScheduler(policy)):
            for i in range(3):
                item = ready_input(context, f"S{i}", ts=float(i), order=i)
                item.queue.readiness_listener = (
                    lambda queue, nonempty, item=item, scheduler=scheduler: (
                        scheduler.on_ready if nonempty else scheduler.on_unready
                    )(item)
                )
                scheduler.on_ready(item)
            served.append([])
            for step in range(9):
                chosen = scheduler.pop_next()
                chosen.queue.pop()
                served[-1].append(chosen.order)
                chosen.queue.push(AtomicTuple("S", 10.0 + step, {"x": 1}))
        assert served[0] == served[1] == [0, 1, 2] * 3


# ------------------------------------------------------------------ policy rules


class TestBoostDirection:
    """§III-B: a suspension boosts the handling operator, a resumption the producer."""

    def test_suspend_boosts_consumer(self, context, pick):
        # The producer's head is older, so plain FIFO (and the old
        # boost-the-producer bug) would pick the producer either way.
        producer_item = ready_input(context, "P", ts=1.0, order=0)
        consumer_item = ready_input(context, "C", ts=2.0, order=1)
        ready = (producer_item, consumer_item)
        scheduler = JITAwareScheduler(boost_steps=2)
        assert pick(scheduler, ready) == 0  # FIFO: producer's head is older
        scheduler.notify_feedback(producer_item.operator, consumer_item.operator, "suspend")
        assert pick(scheduler, ready) == 1  # the handling consumer jumps ahead

    def test_resume_boosts_producer(self, context, pick):
        ready = (
            ready_input(context, "P", ts=5.0, order=0),
            ready_input(context, "C", ts=2.0, order=1),
        )
        scheduler = JITAwareScheduler(boost_steps=2)
        assert pick(scheduler, ready) == 1  # FIFO: consumer's head is older
        scheduler.notify_feedback(ready[0].operator, ready[1].operator, "resume")
        assert pick(scheduler, ready) == 0


class TestBoostDecay:
    """A boost must survive until the boosted operator is actually served."""

    def test_boost_survives_while_not_servable(self, context, pick):
        scheduler = JITAwareScheduler(boost_steps=2)
        producer, consumer = StubOperator("P"), StubOperator("C")
        other_a = ready_input(context, "A", ts=1.0, order=1)
        other_b = ready_input(context, "B", ts=2.0, order=2)
        ready_without_producer = (other_a, other_b)
        scheduler.notify_feedback(producer, consumer, "resume")
        # Far more scheduling decisions than boost_steps pass without the
        # producer having any ready input; a per-decision decay would have
        # expired the boost before the producer ever ran.
        for _ in range(10):
            assert pick(scheduler, ready_without_producer) == 0
        producer_item = ready_input(context, "P", ts=9.0, order=0, operator=producer)
        ready = (producer_item,) + ready_without_producer
        assert pick(scheduler, ready) == 0  # still boosted: producer wins
        assert pick(scheduler, ready) == 0  # second (and last) boosted serving
        assert pick(scheduler, ready) == 1  # consumed: FIFO again

    def test_oldest_boosted_head_wins(self, context, pick):
        # Two boosted operators ready at once: the oldest head runs first,
        # not the lowest registration order.
        scheduler = JITAwareScheduler(boost_steps=4)
        op_young, op_old = StubOperator("young"), StubOperator("old")
        young = ready_input(context, "Y", ts=3.0, order=0, operator=op_young)
        old = ready_input(context, "O", ts=1.5, order=1, operator=op_old)
        scheduler.notify_feedback(op_young, StubOperator("x"), "resume")
        scheduler.notify_feedback(op_old, StubOperator("x"), "resume")
        assert pick(scheduler, (young, old)) == 1


# ------------------------------------------------------------------ the base-class contract


#: name -> zero-argument factory for each kind of scheduler the engine takes:
#: the shipped heap policies, the linear-scan reference, and the smallest
#: policy the contract admits (the four delta/decision methods, nothing else).
CONTRACT_SCHEDULERS = {
    "fifo": lambda: build_scheduler("fifo"),
    "jit_aware": lambda: build_scheduler("jit_aware"),
    "linear-fifo": lambda: LinearScanScheduler("fifo"),
    "linear-jit_aware": lambda: LinearScanScheduler("jit_aware"),
    "minimal": MinimalFIFOScheduler,
}


def _serve(scheduler, item):
    """The engine's step after ``pop_next``: take the head tuple, then
    re-register the input under its new head or drop it."""
    item.queue.pop()
    (scheduler.on_head_change if item.queue else scheduler.on_unready)(item)


def _drain(scheduler):
    """Serve until nothing is ready; the orders in serving sequence."""
    served = []
    while scheduler.ready_count():
        item = scheduler.pop_next()
        _serve(scheduler, item)
        served.append(item.order)
    return served


@pytest.mark.parametrize("name", CONTRACT_SCHEDULERS)
class TestSchedulerContract:
    """What the drain loop, the shard snapshot and plan retirement rely on,
    kept by every scheduler: the base class's ready map and its default
    methods, and FIFO order while no feedback flows."""

    def test_ready_count_and_items_track_deltas(self, context, name):
        scheduler = CONTRACT_SCHEDULERS[name]()
        assert scheduler.ready_count() == 0 and scheduler.ready_items() == ()
        items = [ready_input(context, f"S{i}", ts=float(i), order=i) for i in range(3)]
        for item in items:
            scheduler.on_ready(item)
        assert scheduler.ready_count() == 3
        scheduler.on_unready(items[1])
        assert scheduler.ready_count() == 2
        assert sorted(item.order for item in scheduler.ready_items()) == [0, 2]

    def test_unready_of_an_unregistered_input_is_a_noop(self, context, name):
        # retire() drops every template of a plan through on_unready, ready or not.
        scheduler = CONTRACT_SCHEDULERS[name]()
        kept = ready_input(context, "K", ts=1.0, order=0)
        never = ready_input(context, "N", ts=0.5, order=1)
        scheduler.on_ready(kept)
        scheduler.on_unready(never)
        assert scheduler.ready_count() == 1
        scheduler.on_unready(kept)
        scheduler.on_unready(kept)
        assert scheduler.ready_count() == 0
        scheduler.on_ready(kept)
        assert _drain(scheduler) == [0]

    def test_oldest_head_first_without_feedback(self, context, name):
        scheduler = CONTRACT_SCHEDULERS[name]()
        heads = (4.0, 1.0, 3.0, 0.5, 2.0)
        for order in (2, 0, 4, 1, 3):
            scheduler.on_ready(ready_input(context, f"S{order}", ts=heads[order], order=order))
        assert _drain(scheduler) == [3, 1, 4, 2, 0]

    def test_equal_heads_break_ties_on_order(self, context, name):
        scheduler = CONTRACT_SCHEDULERS[name]()
        for order in (3, 1, 2, 0):
            scheduler.on_ready(ready_input(context, f"S{order}", ts=1.0, order=order))
        assert _drain(scheduler) == [0, 1, 2, 3]

    def test_head_change_requeues_behind_older_heads(self, context, name):
        scheduler = CONTRACT_SCHEDULERS[name]()
        first = ready_input(context, "A", ts=1.0, order=0)
        first.queue.push(AtomicTuple("A", 5.0, {"x": 1}))
        second = ready_input(context, "B", ts=2.0, order=1)
        scheduler.on_ready(first)
        scheduler.on_ready(second)
        assert _drain(scheduler) == [0, 1, 0]

    def test_retire_drops_only_the_retired_inputs(self, context, name):
        scheduler = CONTRACT_SCHEDULERS[name]()
        gone, stays = StubOperator("gone"), StubOperator("stays")
        templates = [
            ready_input(context, f"T{order}", ts=0.5 * (order + 1), order=order,
                        operator=gone if order % 2 == 0 else stays)
            for order in range(5)
        ]
        for item in templates[:4]:  # order 4 never became ready
            scheduler.on_ready(item)
        scheduler.retire(templates[0::2])
        assert scheduler.ready_count() == 2
        assert sorted(item.order for item in scheduler.ready_items()) == [1, 3]
        assert _drain(scheduler) == [1, 3]

    def test_retire_forgets_the_retired_operators_boost(self, context, name):
        # A boost left by a retired operator must not favour whatever is
        # registered under that operator identity afterwards.
        scheduler = CONTRACT_SCHEDULERS[name]()
        gone, other = StubOperator("gone"), StubOperator("other")
        template = ready_input(context, "G", ts=1.0, order=0, operator=gone)
        scheduler.on_ready(template)
        scheduler.notify_feedback(gone, StubOperator("consumer"), "resume")
        scheduler.retire([template])
        assert scheduler.ready_count() == 0
        scheduler.on_ready(ready_input(context, "O", ts=2.0, order=1, operator=other))
        scheduler.on_ready(ready_input(context, "G", ts=3.0, order=2, operator=gone))
        assert _drain(scheduler) == [1, 2]

    def test_starvation_ages_read_the_ready_set(self, context, name):
        scheduler = CONTRACT_SCHEDULERS[name]()
        for order, ts in enumerate((1.0, 4.0, 9.0)):
            scheduler.on_ready(ready_input(context, f"S{order}", ts=ts, order=order))
        assert scheduler.starvation_ages(5.0) == {0: 4.0, 1: 1.0, 2: 0.0}
        _drain(scheduler)
        assert scheduler.starvation_ages(5.0) == {}

    def test_random_churn_pops_the_ready_minimum(self, context, name):
        # Seeded churn of every delta the engine issues; each pop must be
        # the oldest head (order as tie-break) of what is ready right then.
        rng = random.Random(17)
        scheduler = CONTRACT_SCHEDULERS[name]()
        items = [ready_input(context, f"S{i}", ts=float(i % 3), order=i) for i in range(6)]
        ready = {}
        clock = 3.0
        for item in items:
            scheduler.on_ready(item)
            ready[item.order] = item
        pops = 0
        for _ in range(300):
            roll = rng.random()
            idle = [item for item in items if item.order not in ready]
            if idle and roll < 0.3:
                item = rng.choice(idle)
                clock += rng.choice((0.0, 0.5, 1.0))
                item.queue.push(AtomicTuple(item.operator.name, clock, {"x": 1}))
                scheduler.on_ready(item)
                ready[item.order] = item
            elif ready and roll < 0.45:
                item = rng.choice(list(ready.values()))
                item.queue.drain()
                scheduler.on_unready(item)
                del ready[item.order]
            elif ready:
                expected = min(ready.values(), key=lambda item: (item.head_ts, item.order))
                chosen = scheduler.pop_next()
                assert chosen is expected
                pops += 1
                if rng.random() < 0.5:
                    clock += rng.choice((0.0, 0.5, 1.0))
                    chosen.queue.push(AtomicTuple(chosen.operator.name, clock, {"x": 1}))
                _serve(scheduler, chosen)
                if not chosen.queue:
                    del ready[chosen.order]
            assert scheduler.ready_count() == len(ready)
        assert pops > 100

    def test_engine_leaves_the_ready_map_empty(self, name):
        # Every empty<->non-empty transition of a real queued run reaches the
        # scheduler: at quiescence nothing is left in its ready map, and the
        # results are the synchronous run's.
        workload = generate_clique_workload(
            n_sources=3, rate=0.5, window_seconds=20, dmax=2, duration=40, seed=0
        )
        query = ContinuousQuery.from_workload(workload)
        events = workload.events()
        sync = run_workload(
            build_xjoin_plan(query, strategy=STRATEGY_JIT), events, workload.window.length
        )
        scheduler = CONTRACT_SCHEDULERS[name]()
        queued = run_queued(query, events, strategy=STRATEGY_JIT, scheduler=lambda: scheduler)
        assert result_multiset(queued.results.results) == result_multiset(sync.results.results)
        assert len(queued.results.results) > 0
        assert scheduler.ready_count() == 0 and scheduler.ready_items() == ()
