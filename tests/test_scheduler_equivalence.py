"""Scheduler correctness: golden schedules, a linear-scan differential, policy rules.

* ``golden.json`` pins what every policy produces on a single queued plan and
  on 1- and 2-shard sync engines (with and without shared sub-plans), in
  three parts: the schedule (per-shard pop order + per-query result
  sequences, one digest), ``cpu_units`` and the scheduler-step count.
  A mismatch names the part, so "a scheduling decision changed" and "a
  modelled cost moved" are different failures; ``python -m tests.golden
  --check|--record`` (``tests/golden.py``) lists what moved and re-records.
* The shipped heap policies must pop in exactly the order of the test-only
  :class:`helpers.LinearScanScheduler` (``min()`` over a plain dict), driven
  through the same drain loop via ``scheduler=``.  Deterministic cases are
  tier-1; the hypothesis sweep (``slow``) explores random workloads nightly.
* The §III-B rules the policies implement: a *suspension* boosts the handling
  (downstream) operator, a *resumption* the producer; a boost decays only when
  the boosted operator is served, and the oldest boosted head wins; round
  robin rotates over stable registration orders and ``retire`` evicts them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from golden import ALL_POLICIES, SHARDED_CONFIGS
from helpers import LinearScanScheduler, StubOperator, ready_input
from repro.scheduler import (
    JITAwareScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    build_scheduler,
)
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
VARIANTS["priority-upstream"] = (
    lambda: PriorityScheduler(prefer_downstream=False),
    lambda: LinearScanScheduler("priority", prefer_downstream=False),
)
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

    def test_rotation_survives_unready_ready_churn(self, context):
        # Every pop empties the served queue (on_unready) and the refill
        # re-registers it (on_ready): rotation state must survive, and the
        # heap rotation must track the linear scan's.
        served = []
        for scheduler in (RoundRobinScheduler(), LinearScanScheduler("round_robin")):
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


class TestRoundRobinIdentity:
    """The rotation keys on the stable order, and retire evicts records."""

    def test_same_operator_two_ports_rotate_independently(self, context, pick):
        operator = StubOperator("shared")
        left = ready_input(context, "L", ts=1.0, order=0, operator=operator)
        right = ready_input(context, "R", ts=2.0, order=1, operator=operator)
        scheduler = RoundRobinScheduler()
        assert [pick(scheduler, (left, right)) for _ in range(4)] == [0, 1, 0, 1]

    def test_retire_evicts_history(self, context, pick):
        scheduler = RoundRobinScheduler()
        a = ready_input(context, "A", ts=1.0, order=0)
        b = ready_input(context, "B", ts=2.0, order=1)
        for _ in range(3):
            pick(scheduler, (a, b))
        assert set(scheduler._history) == {0, 1}
        scheduler.retire((b,))
        assert set(scheduler._history) == {0}
        # A later plan's input reuses nothing: fresh order, fresh record,
        # and the rotation stays fair across the churn.
        c = ready_input(context, "C", ts=3.0, order=2)
        served = [(a, c)[pick(scheduler, (a, c))].operator.name for _ in range(4)]
        assert served.count("A") == served.count("C") == 2
        assert set(scheduler._history) == {0, 2}
