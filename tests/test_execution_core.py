"""Tests for the high-throughput execution core.

Covers queued-vs-synchronous equivalence, timestamp ties on the one
ingestion path (single-plan and sharded engines), the hash-indexed JIT
probe paths, feedback-aware scheduling, the round-robin fairness fix, flat
per-step scheduling work across domain sizes, symmetric feedback
statistics, and the regression for the divert-before-resume-probe result
loss.
"""

from __future__ import annotations

import math
import sys

import pytest

from golden import ALL_POLICIES
from helpers import run_queued
from repro.core.jit_join import JITJoinOperator
from repro.engine import run_workload
from repro.engine.results import result_multiset
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
    policies,
)
from repro.streams.generators import generate_clique_workload
from repro.streams.tuples import AtomicTuple



def _suspension_workload():
    """A 4-source clique workload (3-join left-deep plan) with live JIT traffic."""
    return generate_clique_workload(
        n_sources=4, rate=0.5, window_seconds=20, dmax=2, duration=60, seed=0
    )


def _jit_plan(query, **kwargs):
    return build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT, **kwargs)


def _reference_run(workload):
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    report = run_workload(
        build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF),
        events,
        workload.window.length,
    )
    return query, events, result_multiset(report.results.results)


# ------------------------------------------------------------------- bugfix regression


class TestDivertResumeRegression:
    """A diverted arrival must still trigger resumptions for the MNSs it matches.

    Minimal failing sequence (found by hypothesis, reduced by delta
    debugging): ``C#2`` arrives at the middle join while (i) its own port is
    under an Ø suspension, so the arrival is parked, and (ii) the opposite
    MNS buffer holds ``<A: A.x2=1>``, for which ``C#2`` is the missing
    partner.  Diverting before probing the MNS buffer strands the suspended
    ``A`` tuples upstream forever and the result ``a2·b2·c2·d1`` is lost.
    """

    RAW_EVENTS = (
        ("A", 3.1769, {"x1": 2, "x2": 1, "x3": 1}),
        ("C", 5.8629, {"x2": 2, "x4": 1, "x6": 2}),
        ("B", 7.9334, {"x1": 2, "x4": 2, "x5": 2}),
        ("A", 7.9645, {"x1": 2, "x2": 1, "x3": 1}),
        ("A", 8.7172, {"x1": 2, "x2": 2, "x3": 1}),
        ("B", 8.8028, {"x1": 2, "x4": 1, "x5": 2}),
        ("C", 9.3260, {"x2": 1, "x4": 2, "x6": 2}),
        ("D", 9.3327, {"x3": 1, "x5": 2, "x6": 2}),
    )

    def _events(self):
        events = []
        seqs: dict = {}
        for source, ts, attrs in self.RAW_EVENTS:
            seqs[source] = seqs.get(source, 0) + 1
            events.append(AtomicTuple(source, ts, attrs, seq=seqs[source]))
        return events

    def test_minimal_sequence_matches_ref(self):
        workload = _suspension_workload()
        query = ContinuousQuery.from_workload(workload)
        events = self._events()
        ref = run_workload(
            build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF),
            events,
            workload.window.length,
        )
        jit = run_workload(_jit_plan(query), events, workload.window.length)
        assert result_multiset(jit.results.results) == result_multiset(ref.results.results)
        assert ref.result_count == 3

    def test_original_falsifying_workload_matches_ref(self):
        workload = _suspension_workload()
        query, events, ref = _reference_run(workload)
        jit = run_workload(_jit_plan(query), events, workload.window.length)
        assert result_multiset(jit.results.results) == ref


class TestReplayedTupleResumesRegression:
    """A replayed suspended tuple must act as a resumption trigger.

    Second divergence found by hypothesis, reduced by delta debugging: Op3
    suspends ``<C: C.x6=5>`` at Op2 (parking ``C#1``), after which an AB
    partial probing Op2's right state misses ``C#1`` and suspends
    ``<A: A.x2=6>`` at Op1.  When ``C#1`` is later resumed, its replay
    re-enters the state — making it the missing partner of ``<A: A.x2=6>``
    — but a replay that skips the MNS-buffer probe never resumes the
    suspended ``A``, and the result ``a1·b3·c1·d2`` is lost.

    That sequence was found with feedback relaying and arrival diversion
    switched off; under the default configuration it no longer loses a
    result without the probe.  ``DEFAULT_CONFIG_EVENTS`` does: the same
    defect, reduced the same way from a 4-source clique (rate 1, 20-s
    window, dmax 4, seed 8), loses its one result.
    """

    RAW_EVENTS = (
        ("A", 1.042680048453, {"x1": 5, "x2": 6, "x3": 2}),
        ("C", 1.343772337151322, {"x2": 6, "x4": 4, "x6": 5}),
        ("C", 2.1224435595944255, {"x2": 4, "x4": 5, "x6": 4}),
        ("B", 2.2112908905890296, {"x1": 5, "x4": 3, "x5": 4}),
        ("A", 2.575528409273283, {"x1": 5, "x2": 1, "x3": 5}),
        ("D", 2.708958737582136, {"x3": 5, "x5": 3, "x6": 1}),
        ("C", 2.778704628033483, {"x2": 1, "x4": 3, "x6": 5}),
        ("B", 3.762794256505115, {"x1": 5, "x4": 3, "x5": 4}),
        ("B", 4.832813725028561, {"x1": 5, "x4": 4, "x5": 4}),
        ("D", 46.45106987117514, {"x3": 2, "x5": 4, "x6": 5}),
    )

    DEFAULT_CONFIG_EVENTS = (
        ("C", 0.7417981820088779, {"x2": 3, "x4": 1, "x6": 1}),
        ("B", 3.2436706775433684, {"x1": 2, "x4": 1, "x5": 3}),
        ("B", 3.7133330856615516, {"x1": 4, "x4": 1, "x5": 1}),
        ("B", 4.046122940037124, {"x1": 2, "x4": 2, "x5": 1}),
        ("D", 4.0575135375666385, {"x3": 1, "x5": 2, "x6": 2}),
        ("A", 5.1099968817167625, {"x1": 2, "x2": 3, "x3": 4}),
        ("A", 6.164188150310329, {"x1": 2, "x2": 3, "x3": 3}),
        ("D", 6.675897726095611, {"x3": 4, "x5": 1, "x6": 1}),
        ("A", 16.085340833403805, {"x1": 4, "x2": 3, "x3": 4}),
    )

    @pytest.mark.parametrize(
        "raw_events, window_seconds",
        ((RAW_EVENTS, 80), (DEFAULT_CONFIG_EVENTS, 20)),
        ids=("found", "default-config"),
    )
    def test_minimal_sequence_matches_ref(self, raw_events, window_seconds):
        workload = generate_clique_workload(
            n_sources=4, rate=2.0, window_seconds=window_seconds, dmax=6, duration=100, seed=56
        )
        query = ContinuousQuery.from_workload(workload)
        events = []
        seqs: dict = {}
        for source, ts, attrs in raw_events:
            seqs[source] = seqs.get(source, 0) + 1
            events.append(AtomicTuple(source, ts, attrs, seq=seqs[source]))
        ref = run_workload(
            build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF),
            events,
            workload.window.length,
        )
        jit = run_workload(_jit_plan(query), events, workload.window.length)
        assert result_multiset(jit.results.results) == result_multiset(ref.results.results)
        assert ref.result_count == 1


# ------------------------------------------------------------------- queued equivalence


class TestQueuedEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_all_policies_match_synchronous_on_jit_plan(self, policy):
        workload = _suspension_workload()
        query, events, ref = _reference_run(workload)
        hosted = []
        report = run_queued(query, events, scheduler=policy, prepare=hosted.append)
        (plan,) = hosted
        assert result_multiset(report.results.results) == ref
        # The workload must actually exercise the feedback mechanism for the
        # equivalence to mean anything.
        stats = [op.stats for op in plan.join_operators if isinstance(op, JITJoinOperator)]
        assert sum(s["suspensions_sent"] for s in stats) > 0
        assert sum(s["resumptions_sent"] for s in stats) > 0


# ------------------------------------------------------------------- timestamp ties


def _tied_events():
    """Two equi-joined sources with several same-timestamp arrivals."""
    events = []
    seq = 0
    for step in range(40):
        ts = float(step)
        for source in ("A", "B"):
            for k in range(2):
                seq += 1
                events.append(AtomicTuple(source, ts, {"x1": (seq + k) % 3}, seq=seq))
    return events


def _two_source_query():
    workload = generate_clique_workload(
        n_sources=2, rate=1.0, window_seconds=10, dmax=3, duration=40, seed=1
    )
    return ContinuousQuery.from_workload(workload)


#: Every engine the tied stream is fed through: one plan per execution
#: setting and strategy, and a sharded engine per shard configuration and
#: scheduler policy.
TIE_CASES = [
    pytest.param("engine", setting, strategy, id=f"engine-{setting}-{strategy}")
    for setting in ("synchronous", "queued")
    for strategy in (STRATEGY_REF, STRATEGY_JIT)
] + [
    pytest.param(
        "sharded", (n_shards, drain_mode), policy, id=f"{n_shards}-{drain_mode}-{policy}"
    )
    for n_shards, drain_mode in ((1, "sync"), (2, "sync"), (3, "sync"), (2, "process"))
    for policy in ALL_POLICIES
]


class TestTimestampTies:
    @pytest.mark.parametrize("kind,layout,variant", TIE_CASES)
    def test_tied_stream_matches_synchronous_ref(self, kind, layout, variant):
        """Same-timestamp arrivals, one ``submit`` each, give the synchronous
        REF run's results under every engine, and so exercise the
        schedulers' equal-head tie-breaks."""
        query = _two_source_query()
        events = _tied_events()
        ref = run_workload(build_xjoin_plan(query, strategy=STRATEGY_REF), events, 10.0)
        expected = result_multiset(ref.results.results)
        assert ref.result_count > 0
        if kind == "engine":
            if layout == "queued":
                report = run_queued(query, events, strategy=variant)
            else:
                report = run_workload(build_xjoin_plan(query, strategy=variant), events, 10.0)
            assert result_multiset(report.results.results) == expected
            return
        n_shards, drain_mode = layout
        registry = QueryRegistry()
        for strategy in (STRATEGY_REF, STRATEGY_JIT, STRATEGY_REF):
            registry.register(query, strategy=strategy)
        with ShardedEngine(
            registry, n_shards=n_shards, scheduler=variant, drain_mode=drain_mode
        ) as engine:
            report = engine.run(events)
        assert report.events_ingested == len(events)
        for query_id, query_report in report.queries.items():
            assert result_multiset(query_report.results.results) == expected, query_id


# ------------------------------------------------------------------- hash-indexed probes


class TestIndexedJITProbes:
    @pytest.mark.parametrize("queued", (False, True), ids=("synchronous", "queued"))
    def test_indexed_jit_join_matches_ref(self, queued):
        workload = _suspension_workload()
        query, events, ref = _reference_run(workload)
        if queued:
            report = run_queued(query, events, use_hash_index=True)
        else:
            report = run_workload(
                _jit_plan(query, use_hash_index=True), events, workload.window.length
            )
        assert result_multiset(report.results.results) == ref

    def test_indexed_jit_join_matches_ref_with_suspension_churn(self):
        # Higher rate and a selective top join: many suspensions/resumptions
        # exercise _join_resumed's indexed path with non-trivial watermarks.
        workload = generate_clique_workload(
            n_sources=3,
            rate=1.0,
            window_seconds=36,
            dmax=40,
            duration=110,
            seed=9,
            value_range_overrides={"C": 5000},
        )
        query, events, ref = _reference_run(workload)
        plan = _jit_plan(query, use_hash_index=True)
        report = run_workload(plan, events, workload.window.length)
        assert result_multiset(report.results.results) == ref
        stats = [op.stats for op in plan.join_operators if isinstance(op, JITJoinOperator)]
        assert sum(s["suspensions_sent"] for s in stats) > 0

    def test_detection_free_probe_uses_index(self):
        # On a 2-source plan both ports are source-fed, so detection is off
        # and every probe is one lookup on the equi-join key: no PROBE_STEP
        # cost beyond key-matching entries, i.e. far fewer than the nested
        # loop.  (Detecting probes are index-served too; test_jit_indexes.py
        # covers them.)
        workload = generate_clique_workload(
            n_sources=2, rate=2.0, window_seconds=30, dmax=50, duration=100, seed=3
        )
        query, events, ref = _reference_run(workload)
        nested = run_workload(_jit_plan(query), events, workload.window.length)
        indexed = run_workload(
            _jit_plan(query, use_hash_index=True), events, workload.window.length
        )
        assert result_multiset(indexed.results.results) == ref
        nested_probes = nested.metrics.counters.get("probe_step", 0)
        indexed_probes = indexed.metrics.counters.get("probe_step", 0)
        assert indexed_probes < nested_probes / 5


# ------------------------------------------------------------------- schedulers


class TestSchedulerStepScaling:
    """One scheduling step does the same work in a 16-queue and a 340-queue domain."""

    @staticmethod
    def _policy_calls_per_step(policy, n_queries):
        workload = generate_multi_query_workload(
            n_queries=n_queries, n_sources=4, rate=1.0, window_seconds=20.0,
            dmax=400, duration=30.0, seed=13,
        )
        registry = QueryRegistry()
        for query in workload.queries():
            registry.register(query, strategy=STRATEGY_REF)
        calls = 0

        def count_policy_calls(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename == policies.__file__:
                calls += 1

        with ShardedEngine(registry, n_shards=1, scheduler=policy, keep_results=False) as engine:
            shard = engine.shards[0]
            sys.setprofile(count_policy_calls)
            try:
                engine.run(workload.events())
            finally:
                sys.setprofile(None)
            return shard.queue_count, calls / shard.cost.counters[CostKind.SCHEDULER_STEP]

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_policy_calls_per_step_stay_flat(self, policy):
        # Python calls made inside scheduler/policies.py per scheduler step:
        # a clock-free stand-in for us/step.  A policy that walked its ready
        # set per step would grow with the domain (~21x more queues here).
        small_queues, small = self._policy_calls_per_step(policy, 6)
        big_queues, big = self._policy_calls_per_step(policy, 128)
        assert (small_queues, big_queues) == (16, 340)
        assert big < small * 1.3, f"{policy}: {small:.2f} -> {big:.2f} calls/step"


class TestFeedbackAwareScheduling:
    def test_engine_notifies_scheduler_of_feedback(self):
        workload = _suspension_workload()
        query, events, ref = _reference_run(workload)
        notifications = []

        def scheduler():
            policy = JITAwareScheduler()
            notify = policy.notify_feedback

            def noting(producer, consumer, kind):
                notifications.append(kind)
                notify(producer, consumer, kind)

            policy.notify_feedback = noting
            return policy

        report = run_queued(query, events, scheduler=scheduler)
        assert result_multiset(report.results.results) == ref
        assert "suspend" in notifications and "resume" in notifications


# ------------------------------------------------------------------- feedback statistics


class TestFeedbackStats:
    def test_sent_equals_received_per_signature(self):
        workload = _suspension_workload()
        query, events, _ref = _reference_run(workload)
        plan = _jit_plan(query)
        run_workload(plan, events, workload.window.length)
        jit_ops = [op for op in plan.join_operators if isinstance(op, JITJoinOperator)]
        sent_susp = sum(op.stats["suspensions_sent"] for op in jit_ops)
        recv_susp = sum(op.stats["suspensions_received"] for op in jit_ops)
        sent_res = sum(op.stats["resumptions_sent"] for op in jit_ops)
        recv_res = sum(op.stats["resumptions_received"] for op in jit_ops)
        assert sent_susp > 0 and sent_res > 0
        assert sent_susp == recv_susp
        assert sent_res == recv_res
