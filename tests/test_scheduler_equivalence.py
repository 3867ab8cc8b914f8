"""Scheduler correctness: golden schedules, a linear-scan differential, policy rules.

* ``GOLDEN`` pins the schedule every policy produces — per-shard pop order,
  per-query result sequences, ``cpu_units`` and the scheduler-step count — on
  a single queued plan and on 1- and 2-shard engines (sync and thread drains,
  with and without shared sub-plans).  The digests were first recorded at the
  last commit that still carried the sorted-``select`` drain, where both
  drains produced them, and re-recorded when cost-gated MNS detection changed
  what the JIT plans of these populations charge and pop (the per-query
  result sequences inside every digest did not move; CHANGES.md, PR 17), and
  the four ``single`` ones again when the blacklist stopped scanning itself
  (``cpu_units`` 145163.5 -> 145146.5, pops and result sequences unmoved; the
  sharded populations suspend too little for the two to differ; CHANGES.md,
  PR 19).  A change that moves one changed a scheduling decision or a
  modelled cost.
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

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import LinearScanScheduler, StubOperator, ready_input, record_pops
from repro.engine import ExecutionMode, run_workload
from repro.engine.results import result_key
from repro.metrics import CostKind
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import (
    PLAN_LEFT_DEEP,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.scheduler import (
    JITAwareScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    build_scheduler,
)
from repro.streams.generators import generate_clique_workload
from repro.streams.tuples import AtomicTuple

ALL_POLICIES = ("fifo", "round_robin", "priority", "jit_aware")

#: name -> (n_shards, drain_mode, share_subplans); "single" is one queued plan.
SHARDED_CONFIGS = {
    f"{n_shards}{'-shared' if share else ''}-{drain_mode}": (n_shards, drain_mode, share)
    for n_shards, drain_mode in ((1, "sync"), (2, "sync"), (2, "thread"))
    for share in (False, True)
}

#: (policy, config without its drain mode) -> digest: a thread drain must
#: reproduce the sync schedule exactly.
GOLDEN = {
    ("fifo", "single"): "8de04f8686816bfd4fe3a1f23d72b66feb40b94e04aa203490e0e777bd87b051",
    ("fifo", "1"): "814de56b03a55aaba59eb17968f7a250c4a40b32cc7499a890fa768341699ce0",
    ("fifo", "1-shared"): "9268b49fa27f9aac591a33ae948131a8cd226fc5be1f266c61e4138fff9fcf9d",
    ("fifo", "2"): "a89a8816f408d4a26750b71f1e5668b39fe010149faaaf5661bb193a3dc56ce1",
    ("fifo", "2-shared"): "61b4cc1bdd302f639920c03e2b8a1e4aaccb16bf185ae1c83f382818a3f9d042",
    ("round_robin", "single"): "2b3ade304491757c579c9cec3c02dd1f31c2b8ddd6ce2b4ecfe5a148becc764e",
    ("round_robin", "1"): "1b185080563797c1406f51bbf38ee3543a8326eec5df4258e4df03800d55cba4",
    ("round_robin", "1-shared"): "3484a5f81fdcecc41ac8da47fb51ba69f0fd63576c267098e1d4cc0c5755e5d6",
    ("round_robin", "2"): "f9e43f8156ba4bb0d6cf94ce31005a08a1ca4dca66db380021ad2789bf37351a",
    ("round_robin", "2-shared"): "19570e387c06a26dce1e80107306a59e041e8080be4fb7aafbfedf8796b73413",
    ("priority", "single"): "edf7fa6f7ac0fb76d389b8f13d6edadaf3efd92694d5bf8ee8a62bd243f6308b",
    ("priority", "1"): "554a4b27c45bbad34a4da6ce7592b4a762a5ee4bd0b72eb58726c2e94e5ce9e8",
    ("priority", "1-shared"): "f1632877e6d846c5e10d5f431a894e2045080ab6edb14888792673f52025a407",
    ("priority", "2"): "b00e5146d3a72f6d665714332aacb5963c297a3f220b7011046cf47f2d307dc3",
    ("priority", "2-shared"): "c301206cddebceaafce160b045fab1bc6e0f77c488fee7b9f6c09e91d7bfa4d3",
    ("jit_aware", "single"): "8de04f8686816bfd4fe3a1f23d72b66feb40b94e04aa203490e0e777bd87b051",
    ("jit_aware", "1"): "b60f83751c2c3e968cbe9bb58fff2d698b5c14a156b077118e765edbf57740e3",
    ("jit_aware", "1-shared"): "4c9eb44b7e7465f5b2b3b07df91f296210862a46b861ffd24c5da2fd527eabf3",
    ("jit_aware", "2"): "3a9fa36a0e7304df7ebd0429a098cd6a2f1704219020dde67747fc961b7f3899",
    ("jit_aware", "2-shared"): "8967600c0e20e841c2472b9b9c29999d944d773e47afe7b8347e25389de0f1a2",
}


# ------------------------------------------------------------------ recorded runs


def _single_plan_run(scheduler, n_sources=4, rate=0.5, dmax=2, duration=60, seed=0):
    """(pops per shard, results per query, cpu_units, scheduler steps)."""
    workload = generate_clique_workload(
        n_sources=n_sources, rate=rate, window_seconds=20, dmax=dmax,
        duration=duration, seed=seed,
    )
    pops = []
    report = run_workload(
        build_xjoin_plan(
            ContinuousQuery.from_workload(workload),
            shape=PLAN_LEFT_DEEP,
            strategy=STRATEGY_JIT,
        ),
        workload.events(),
        workload.window.length,
        mode=ExecutionMode.QUEUED,
        scheduler=record_pops(scheduler, pops),
    )
    steps = report.metrics.counters.get(CostKind.SCHEDULER_STEP, 0)
    return [pops], {"q": list(report.results.results)}, report.cpu_units, steps


def _sharded_run(make_scheduler, n_shards, drain_mode, share):
    workload = generate_multi_query_workload(
        n_queries=12, n_sources=4, rate=0.8, window_seconds=20, dmax=4,
        duration=60, seed=3,
    )
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF)
    pops = []

    def factory():
        # Shards build their schedulers in shard order.
        pops.append([])
        return record_pops(make_scheduler(), pops[-1])

    with ShardedEngine(
        registry,
        n_shards=n_shards,
        scheduler=factory,
        drain_mode=drain_mode,
        share_subplans=share,
    ) as engine:
        report = engine.run(workload.events())
        results = {qid: list(engine.results_for(qid).results) for qid in registry.ids}
        steps = sum(
            shard.cost.counters.get(CostKind.SCHEDULER_STEP, 0) for shard in engine.shards
        )
    return pops, results, report.cpu_units, steps


def _run(make_scheduler, config):
    if config == "single":
        return _single_plan_run(make_scheduler())
    return _sharded_run(make_scheduler, *SHARDED_CONFIGS[config])


def schedule_digest(run) -> str:
    """sha256 over a canonical text of one recorded run (no ``hash()``, no
    set order: ints, source names and ``repr`` of floats only)."""
    pops, results, cpu_units, steps = run
    lines = [f"pops {shard}: {' '.join(map(str, orders))}" for shard, orders in enumerate(pops)]
    for query_id, tuples in results.items():
        lines.append(f"results {query_id}:")
        for tup in tuples:
            components, ts = result_key(tup)
            lines.append(" ".join(f"{src}#{seq}" for src, seq in components) + f" @{ts!r}")
    lines.append(f"cpu_units {cpu_units!r}")
    lines.append(f"scheduler_steps {steps}")
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


class TestGoldenSchedules:
    """Every policy still produces the recorded schedule, bit for bit."""

    @pytest.mark.parametrize("config", ("single",) + tuple(SHARDED_CONFIGS))
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_schedule_digest(self, policy, config):
        run = _run(lambda: build_scheduler(policy), config)
        assert sum(len(orders) for orders in run[0]) == run[3] > 0
        assert sum(len(tuples) for tuples in run[1].values()) > 0
        assert schedule_digest(run) == GOLDEN[policy, config.rsplit("-", 1)[0]]


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

    @pytest.mark.parametrize("config", ("single", "2-sync", "2-shared-thread"))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_same_pops_results_and_cost(self, variant, config):
        indexed, linear = VARIANTS[variant]
        assert _run(indexed, config) == _run(linear, config)

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
        assert _single_plan_run(indexed(), **shape) == _single_plan_run(linear(), **shape)

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
