"""Tests of the JIT join operator and of the paper's worked examples.

The running example (Table I / Section III-A) and the 5-way propagation
example (Figure 5) are replayed tuple by tuple and checked against the
behaviour the paper describes.
"""

from __future__ import annotations

import pytest

from repro.context import ExecutionContext
from repro.core.config import DetectionMode, JITConfig
from repro.core.feedback import Feedback
from repro.core.jit_join import JITJoinOperator
from repro.core.signature import MNSSignature
from repro.engine import ExecutionEngine
from repro.engine.results import result_multiset
from repro.operators.base import PORT_LEFT, PORT_RIGHT
from repro.operators.join import BinaryJoinOperator
from repro.operators.predicates import (
    AttributeCompare,
    AttributeRef,
    JoinPredicate,
    SelectionPredicate,
)
from repro.operators.selection import SelectionOperator
from repro.operators.tee import TeeOperator
from repro.plans.builder import PLAN_LEFT_DEEP, STRATEGY_JIT, STRATEGY_REF, build_xjoin_plan
from repro.plans.query import ContinuousQuery
from repro.streams.time import Window
from repro.streams.tuples import AtomicTuple, join_tuples

from helpers import make_tuple


def _abc_query(window_seconds: float = 300.0) -> ContinuousQuery:
    """The Figure 1a query: A ⋈ B on x, A ⋈ C on y, RANGE 5 minutes."""
    predicate = JoinPredicate.equi([(("A", "x"), ("B", "x")), (("A", "y"), ("C", "y"))])
    return ContinuousQuery(sources=("A", "B", "C"), window=Window(window_seconds), predicate=predicate)


def _run(plan, events, window_seconds=300.0):
    context = ExecutionContext(window=Window(window_seconds))
    engine = ExecutionEngine(plan, context)
    report = engine.run(events)
    return report, plan


def _event(source, ts, seq, **attrs):
    return AtomicTuple(source, ts, attrs, seq=seq)


def _table1_events():
    """Tuple arrival sequence of Table I plus the resuming c1 at time 4."""
    return [
        _event("B", 0.0, 0, x=1, y=0),
        _event("B", 0.1, 1, x=1, y=0),
        _event("B", 0.2, 2, x=1, y=0),
        _event("A", 1.0, 0, x=1, y=100),
        _event("B", 2.0, 3, x=1, y=0),
        _event("A", 3.0, 1, x=1, y=100),
        _event("C", 4.0, 0, y=100),
    ]


class TestPaperRunningExample:
    """Table I / Section III-A, on the left-deep plan of Figure 1b."""

    def test_ref_produces_eight_results(self):
        query = _abc_query()
        plan = build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF)
        report, _ = _run(plan, _table1_events())
        # a1 and a2 each join b1..b4, and c1 matches both on y -> 8 results.
        assert report.result_count == 8

    def test_jit_produces_identical_results(self):
        query = _abc_query()
        events = _table1_events()
        ref_report, _ = _run(build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF), events)
        jit_report, jit_plan = _run(build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT), events)
        assert result_multiset(ref_report.results.results) == result_multiset(jit_report.results.results)
        op1 = jit_plan.operator_named("Op1")
        # a1 was detected as an MNS and suspended, and a2 was diverted as a
        # "similar" arrival, exactly as the example describes.
        assert op1.stats["suspensions_received"] >= 1
        assert op1.stats["tuples_diverted"] >= 1
        assert op1.stats["resumptions_received"] >= 1

    def test_jit_avoids_unneeded_intermediate_results(self):
        query = _abc_query()
        events = _table1_events()[:-1]  # no matching C tuple ever arrives
        ref_report, ref_plan = _run(build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF), events)
        jit_report, jit_plan = _run(build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT), events)
        assert ref_report.result_count == jit_report.result_count == 0
        ref_intermediate = ref_plan.operator_named("Op1").emitted_count
        jit_intermediate = jit_plan.operator_named("Op1").emitted_count
        # REF produces a1b1..a1b4 and a2b1..a2b4 (8 partials); JIT produces
        # only the one partial needed to detect the MNS.
        assert ref_intermediate == 8
        assert jit_intermediate < ref_intermediate
        assert jit_report.cpu_units < ref_report.cpu_units

    def test_mns_buffer_holds_empty_signature_while_sc_is_empty(self):
        # When a1b1 reaches Op2, S_C is still empty, so the Ø MNS is reported
        # (Figure 8, line 2) and Op1 is suspended wholesale (the DOE case).
        query = _abc_query()
        events = _table1_events()[:4]  # up to a1's arrival
        _report, plan = _run(build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT), events)
        op2 = plan.operator_named("Op2")
        buffered = op2.mns_buffers[PORT_LEFT].entries()
        assert any(entry.signature.is_empty for entry in buffered)
        op1 = plan.operator_named("Op1")
        assert any(e.signature.is_empty for e in op1.blacklists[PORT_LEFT].entries())

    def test_value_mns_detected_once_c_state_is_non_empty(self):
        # With a non-matching C tuple already in S_C, the consumer detects the
        # a1 value signature (A.y=100) instead of Ø.
        query = _abc_query()
        events = [_event("C", 0.5, 5, y=999)] + _table1_events()[:4]
        events.sort(key=lambda e: e.ts)
        _report, plan = _run(build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT), events)
        op2 = plan.operator_named("Op2")
        buffered = op2.mns_buffers[PORT_LEFT].entries()
        assert any(entry.signature.items == (("A", "y", 100),) for entry in buffered)


class TestFivewayPropagation:
    """Figure 5: the suspension of a1/c1 propagates from Op4 down to Op1/Op2."""

    def _query(self):
        predicate = JoinPredicate.equi(
            [
                (("A", "k"), ("B", "k")),
                (("C", "k"), ("D", "k")),
                (("A", "x"), ("E", "x")),
                (("B", "y"), ("E", "y")),
                (("C", "z"), ("E", "z")),
                (("D", "w"), ("E", "w")),
            ]
        )
        return ContinuousQuery(
            sources=("A", "B", "C", "D", "E"), window=Window(300.0), predicate=predicate
        )

    def _shape(self):
        return ((("A", "B"), ("C", "D")), "E")

    def _events(self):
        # e0 matches b1 and d1 but neither a1 nor c1, exactly the situation of
        # Section III-C; e1 then matches everything and triggers resumption.
        return [
            _event("B", 0.0, 0, k=1, y=7),
            _event("C", 0.1, 0, k=2, z=8),
            _event("D", 0.2, 0, k=2, w=9),
            _event("E", 0.3, 0, x=0, y=7, z=0, w=9),
            _event("A", 1.0, 0, k=1, x=6),
            _event("E", 2.0, 1, x=6, y=7, z=8, w=9),
        ]

    def test_propagated_feedback_reaches_leaf_joins(self):
        query = self._query()
        jit_plan = build_xjoin_plan(query, shape=self._shape(), strategy=STRATEGY_JIT)
        ref_plan = build_xjoin_plan(query, shape=self._shape(), strategy=STRATEGY_REF)
        events = self._events()
        ref_report, _ = _run(ref_plan, events)
        jit_report, plan = _run(jit_plan, events)
        assert result_multiset(ref_report.results.results) == result_multiset(jit_report.results.results)
        assert ref_report.result_count == 1  # a1 b1 c1 d1 e1
        # The mid-level operator (producer of ABCD) received feedback and the
        # leaf joins received the propagated version.
        names = {op.name: op for op in plan.join_operators}
        mid = [op for op in names.values() if op.output_sources() == frozenset("ABCD")][0]
        leafs = [op for op in names.values() if len(op.output_sources()) == 2]
        assert mid.stats["suspensions_received"] >= 1
        assert sum(op.stats["suspensions_received"] for op in leafs) >= 1
        assert mid.stats["resumptions_received"] >= 1


class TestCascadedEmptySuspension:
    """Ø-only detection is DOE [21]: its Ø suspension cascades upstream.

    On ``((A ⋈ B) ⋈ C) ⋈ D``, a1·b1·c1 reaches Op3 while S_D is empty, so Op3
    suspends Ø at Op2.  Op2 parks all its input either way; only under
    ``EMPTY_ONLY`` does it also suspend Ø at Op1 and mark its own entry as
    propagated, so that a resumption reaches Op1 too."""

    @staticmethod
    def _run(mode):
        predicate = JoinPredicate.equi([
            (("A", "x"), ("B", "x")), (("A", "y"), ("C", "y")), (("C", "z"), ("D", "z")),
        ])
        query = ContinuousQuery(
            sources=("A", "B", "C", "D"), window=Window(300.0), predicate=predicate
        )
        plan = build_xjoin_plan(
            query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT,
            jit_config=JITConfig(detection_mode=mode),
        )
        events = [_event("C", 0.0, 0, y=1, z=5), _event("B", 1.0, 0, x=1), _event("A", 2.0, 0, x=1, y=1)]
        _run(plan, events)
        return [plan.operator_named(name) for name in ("Op1", "Op2", "Op3")]

    @staticmethod
    def _empty_entries(op, port):
        return [e for e in op.blacklists[port].entries() if e.signature.is_empty]

    @pytest.mark.parametrize("mode", (DetectionMode.EMPTY_ONLY, DetectionMode.LATTICE))
    def test_op3_suspends_empty_at_op2(self, mode):
        _op1, op2, op3 = self._run(mode)
        assert any(e.signature.is_empty for e in op3.mns_buffers[PORT_LEFT].entries())
        assert len(self._empty_entries(op2, PORT_LEFT)) == 1

    def test_empty_only_cascades_to_op1(self):
        op1, op2, _op3 = self._run(DetectionMode.EMPTY_ONLY)
        assert [e.propagated_upstream for e in self._empty_entries(op2, PORT_LEFT)] == [True]
        assert len(self._empty_entries(op1, PORT_LEFT)) == 1
        assert len(self._empty_entries(op1, PORT_RIGHT)) == 1

    def test_lattice_keeps_it_at_op2(self):
        op1, op2, _op3 = self._run(DetectionMode.LATTICE)
        assert [e.propagated_upstream for e in self._empty_entries(op2, PORT_LEFT)] == [False]
        assert self._empty_entries(op1, PORT_LEFT) == []
        assert self._empty_entries(op1, PORT_RIGHT) == []


class TestNoPurgePins:
    """A suspension keeps nothing past the horizon (docs/JIT.md, "Why nothing
    past the horizon can join a replay"): a replay runs at the stamp of the
    arrival that resumes it, and every result it leads to contains that
    arrival, so an entry below that stamp's horizon can be in none."""

    @staticmethod
    def _step(strategy, query, events):
        """Run ``events`` one by one; return every join's state contents (by
        source seq) after each event, what ``Op1`` built and the results."""
        plan = build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=strategy)
        engine = ExecutionEngine(plan, ExecutionContext(window=query.window))
        op1 = plan.operator_named("Op1")
        built = []
        build = op1.build_result
        op1.build_result = lambda a, b: built.append(build(a, b)) or built[-1]
        held = []
        for event in events:
            engine.process_event(event)
            held.append({
                op.name: {
                    port: sorted(
                        tuple(sorted((c.source, c.seq) for c in e.tuple.components))
                        for e in op.states[port].entries()
                    )
                    for port in (PORT_LEFT, PORT_RIGHT)
                }
                for op in plan.join_operators
            })
        return plan, held, result_multiset(built), result_multiset(engine.collector.results)

    def test_a_suspended_tuple_keeps_no_expired_partner(self):
        """On A ⋈ B (on k) ⋈ C (on A.y), ``a1`` (k = 1) is suspended at Op1.
        At Op1's next purge the expired ``b0`` (k = 1) goes although ``a1``
        could have joined it, and the replay still builds ``a1 b1``, the
        partial of REF's one result ``a1 b1 c5``."""
        predicate = JoinPredicate.equi([(("A", "k"), ("B", "k")), (("A", "y"), ("C", "y"))])
        query = ContinuousQuery(sources=("A", "B", "C"), window=Window(10.0), predicate=predicate)
        events = [
            _event("C", 0.0, 0, y=9),
            _event("B", 1.0, 0, k=1),
            _event("A", 2.0, 1, k=1, y=5),  # a1 b0 finds no C with y = 5: a1 is suspended
            _event("B", 3.0, 1, k=1),  # b1: a1 has not met it
            _event("A", 11.2, 3, k=3, y=7),  # Op1 purges: b0 has expired, b1 has not
            _event("C", 11.5, 5, y=5),  # resumes a1: a1 b1 c5 spans 9.5 s
        ]
        jit, held, jit_built, jit_results = self._step(STRATEGY_JIT, query, events)
        _ref, _held, ref_built, ref_results = self._step(STRATEGY_REF, query, events)
        op1 = jit.operator_named("Op1")
        assert op1.stats["suspensions_received"] == 1 and op1.stats["resumptions_received"] == 1
        assert held[3]["Op1"][PORT_RIGHT] == [(("B", 0),), (("B", 1),)]
        assert held[4]["Op1"][PORT_RIGHT] == [(("B", 1),)]  # b0 gone with a1 suspended
        # REF built a1 b0 and a1 b1; JIT built a1 b0, then a1 b1 by the replay.
        assert jit_built == ref_built and sum(ref_built.values()) == 2
        assert sum(ref_results.values()) == 1 and jit_results == ref_results


class TestJITJoinOperatorUnit:
    def _operator(self, context, config=None):
        predicate = JoinPredicate.equi([(("A", "x"), ("B", "x"))])
        op = JITJoinOperator("J", {"A"}, {"B"}, predicate, config=config)
        op.attach(context)
        op.result_sink = lambda t: None
        return op

    def test_supports_production_control(self, context):
        assert self._operator(context).supports_production_control()
        others = (
            BinaryJoinOperator(
                "R", {"A"}, {"B"}, JoinPredicate.equi([(("A", "x"), ("B", "x"))])
            ),
            SelectionOperator(
                "S",
                SelectionPredicate((AttributeCompare(AttributeRef("A", "x"), ">", 10),)),
                jit_feedback=True,
            ),
            TeeOperator("T", {"A"}),
        )
        for op in others:
            assert not op.supports_production_control()
            # The producer side of the protocol exists on the JIT join alone.
            for name in ("handle_feedback", "suspension_alive"):
                assert not hasattr(op, name)

    def test_a_type2_mns_is_ignored(self, context):
        # Section IV-B: a producer may decline an MNS that spans both of its
        # inputs.  It suppresses nothing, and resuming it yields nothing.
        op = self._operator(context)
        results = []
        op.result_sink = results.append
        context.clock.advance_to(1.0)
        a, b = make_tuple("A", 1.0, x=1), make_tuple("B", 1.0, x=1)
        type2 = MNSSignature.from_components(
            join_tuples(a, b), ("A", "B"), [("A", "x"), ("B", "x")]
        )
        op.handle_feedback(Feedback.suspend([type2]), op)
        assert op.stats["suspensions_received"] == 1
        assert len(op.blacklists[PORT_LEFT]) == len(op.blacklists[PORT_RIGHT]) == 0
        op.process(a, PORT_LEFT)
        op.process(b, PORT_RIGHT)
        assert len(results) == 1
        assert op.handle_feedback(Feedback.resume([type2]), op) == []
        # A Type I MNS on the same operator is acted on.
        type1 = MNSSignature.from_components(a, ("A",), [("A", "x")])
        op.handle_feedback(Feedback.suspend([type1]), op)
        assert len(op.blacklists[PORT_LEFT]) == 1

    def test_retention_policy_scales_with_depth(self, context):
        op = self._operator(context)
        op.depth_to_root = 3
        assert op.retention_seconds == 3 * context.window.length
        shallow = self._operator(context, JITConfig(retention_policy="window"))
        shallow.depth_to_root = 3
        assert shallow.retention_seconds == context.window.length

    def test_source_fed_ports_do_not_detect(self, context):
        # Both inputs are raw sources: there is no producer to control, so no
        # MNS should ever be buffered even though partners are missing.
        op = self._operator(context)
        context.clock.advance_to(1.0)
        op.process(make_tuple("A", 1.0, x=1), PORT_LEFT)
        context.clock.advance_to(2.0)
        op.process(make_tuple("A", 2.0, seq=1, x=2), PORT_LEFT)
        assert len(op.mns_buffers[PORT_LEFT]) == 0
        assert op.stats["mns_detected"] == 0
