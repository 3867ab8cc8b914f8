"""Tests for query descriptions, plan builders, the CQL front end, schedulers
and the execution engine (synchronous, and queued on a one-query shard)."""

from __future__ import annotations

import inspect
import re

import pytest

from repro.context import ExecutionContext
from repro.core.config import DetectionMode, JITConfig
from repro.core.jit_join import JITJoinOperator
from repro.engine import ExecutionEngine, ResultCollector, run_workload
from repro.engine.results import result_key, result_multiset
from repro.operators.base import PORT_LEFT, PORT_RIGHT
from repro.operators.join import BinaryJoinOperator
from repro.operators.predicates import AttributeRef, JoinPredicate
from repro.plans.builder import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    PLAN_RIGHT_DEEP,
    STRATEGY_DOE,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
    paper_plan_shape,
)
from repro.plans.cql import CQLSyntaxError, parse_cql
from repro.plans.query import ContinuousQuery
from repro.scheduler import (
    FIFOScheduler,
    JITAwareScheduler,
    ReadyInput,
    build_scheduler,
)
from repro.streams.generators import generate_clique_workload
from repro.streams.time import Window
from repro.streams.tuples import AtomicTuple, join_tuples

from golden import ALL_POLICIES
from helpers import make_tuple, record_pops, run_queued


# --------------------------------------------------------------------------- query


class TestContinuousQuery:
    def test_from_workload(self, small_workload):
        query = ContinuousQuery.from_workload(small_workload)
        assert query.sources == ("A", "B", "C")
        assert query.n_sources == 3
        assert len(query.predicate.conditions) == 3
        assert len(query.conditions_for_pair("A", "B")) == 1

    def test_describe_reads_like_cql(self, small_workload):
        query = ContinuousQuery.from_workload(small_workload)
        text = query.describe()
        assert text.startswith("SELECT *")
        assert "RANGE" in text and "WHERE" in text

    def test_validation(self):
        pred = JoinPredicate.equi([(("A", "x"), ("B", "x"))])
        with pytest.raises(ValueError):
            ContinuousQuery(sources=("A", "A"), window=Window(10), predicate=pred)
        with pytest.raises(ValueError):
            ContinuousQuery(sources=("A",), window=Window(10), predicate=pred)


# --------------------------------------------------------------------------- plan shapes


class TestPlanShapes:
    def test_table2_shapes(self):
        # Left-deep column of Table II.
        assert paper_plan_shape("ABC", PLAN_LEFT_DEEP) == (("A", "B"), "C")
        assert paper_plan_shape("ABCD", PLAN_LEFT_DEEP) == ((("A", "B"), "C"), "D")
        # Bushy column of Table II.
        assert paper_plan_shape("ABCD", PLAN_BUSHY) == (("A", "B"), ("C", "D"))
        assert paper_plan_shape("ABCDE", PLAN_BUSHY) == ((("A", "B"), ("C", "D")), "E")
        assert paper_plan_shape("ABCDEF", PLAN_BUSHY) == (
            (("A", "B"), ("C", "D")),
            ("E", "F"),
        )
        assert paper_plan_shape("ABCDEFGH", PLAN_BUSHY) == (
            (("A", "B"), ("C", "D")),
            (("E", "F"), ("G", "H")),
        )

    def test_right_deep(self):
        assert paper_plan_shape("ABC", PLAN_RIGHT_DEEP) == ("A", ("B", "C"))

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            paper_plan_shape(["A"], PLAN_BUSHY)
        with pytest.raises(ValueError):
            paper_plan_shape("AB", "spiral")


class TestPlanBuilder:
    def _query(self, n=4):
        wl = generate_clique_workload(n, 1.0, 60, 10, 60, seed=1)
        return ContinuousQuery.from_workload(wl)

    def test_builds_correct_operator_count(self):
        for n in (3, 4, 5, 6):
            plan = build_xjoin_plan(self._query(n), shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF)
            assert len(plan.join_operators) == n - 1
            assert sorted(plan.source_names) == sorted(self._query(n).sources)

    def test_strategy_selects_operator_class(self):
        query = self._query()
        ref = build_xjoin_plan(query, strategy=STRATEGY_REF)
        jit = build_xjoin_plan(query, strategy=STRATEGY_JIT)
        doe = build_xjoin_plan(query, strategy=STRATEGY_DOE)
        assert all(type(op) is BinaryJoinOperator for op in ref.join_operators)
        assert all(isinstance(op, JITJoinOperator) for op in jit.join_operators)
        assert all(
            op.config.detection_mode == DetectionMode.EMPTY_ONLY for op in doe.join_operators
        )
        with pytest.raises(ValueError):
            build_xjoin_plan(query, strategy="wishful")

    def test_depths_assigned_for_retention(self):
        plan = build_xjoin_plan(self._query(4), shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT)
        depths = {op.name: op.depth_to_root for op in plan.join_operators}
        assert depths["Op3"] == 1 and depths["Op1"] == 3

    def test_custom_shape_and_validation(self):
        query = self._query(4)
        plan = build_xjoin_plan(query, shape=(("A", "C"), ("B", "D")), strategy=STRATEGY_REF)
        assert len(plan.join_operators) == 3
        with pytest.raises(ValueError):
            build_xjoin_plan(query, shape=(("A", "B"), "C"))  # misses D

    def test_baseline_helpers(self):
        query = self._query(3)
        ref = build_xjoin_plan(query, strategy=STRATEGY_REF)
        assert ref.description.startswith("xjoin")
        assert not any(isinstance(op, JITJoinOperator) for op in ref.join_operators)
        doe = build_xjoin_plan(query, strategy=STRATEGY_DOE)
        assert all(isinstance(op, JITJoinOperator) for op in doe.join_operators)
        assert all(op.config == JITConfig.doe() for op in doe.join_operators)

    def test_routing_covers_every_source(self):
        plan = build_xjoin_plan(self._query(5), shape=PLAN_BUSHY, strategy=STRATEGY_REF)
        for source in "ABCDE":
            targets = plan.targets_for(source)
            assert len(targets) == 1
        with pytest.raises(KeyError):
            plan.targets_for("Z")


# --------------------------------------------------------------------------- CQL


class TestCQL:
    def test_parse_figure1_query(self):
        query = parse_cql(
            """
            SELECT * FROM
              A [RANGE 5 minutes],
              B [RANGE 5 minutes],
              C [RANGE 5 minutes]
            WHERE A.x = B.x AND A.y = C.y
            """
        )
        assert query.sources == ("A", "B", "C")
        assert query.window.length == 300.0
        assert len(query.predicate.conditions) == 2
        assert not query.selections

    def test_parse_projection_and_selection(self):
        query = parse_cql(
            "SELECT * FROM A [RANGE 30 seconds], B [RANGE 30 seconds] "
            "WHERE A.x = B.x AND A.y > 200"
        )
        assert len(query.selections) == 1
        assert query.window.length == 30.0
        with pytest.raises(CQLSyntaxError, match=re.escape("SELECT A.x, B.y")):
            parse_cql(
                "SELECT A.x, B.y FROM A [RANGE 30 seconds], B [RANGE 30 seconds] "
                "WHERE A.x = B.x AND A.y > 200"
            )

    def test_parse_theta_join(self):
        # A comparison between two sources must be an equality ...
        with pytest.raises(CQLSyntaxError, match=re.escape("A.y >= B.y")):
            parse_cql(
                "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] "
                "WHERE A.x = B.x AND A.y >= B.y"
            )
        # ... while a comparison against a constant stays a selection.
        query = parse_cql(
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] "
            "WHERE A.x = B.x AND A.y >= 3"
        )
        assert [str(c) for c in query.predicate.conditions] == ["A.x = B.x"]
        assert len(query.selections) == 1

    @pytest.mark.parametrize("op", ["=", "!=", "<>", "<", "<=", ">", ">="])
    def test_selection_keeps_comparator(self, op):
        query = parse_cql(
            f"SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] "
            f"WHERE A.x = B.x AND A.y {op} 2"
        )
        (compare,) = query.selections[0].comparisons
        assert (str(compare.ref), compare.comparator, compare.value) == ("A.y", op, 2)
        assert compare.evaluate(make_tuple("A", 0.0, y=2)) == (op in ("=", "<=", ">="))

    @pytest.mark.parametrize(
        "text, named",
        [
            ("SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.x < B.y",
             "A.x < B.y"),
            ("SELECT A.x FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.x = B.x",
             "SELECT A.x"),
        ],
        ids=["theta-join", "projection"],
    )
    def test_theta_join_and_projection_rejected(self, text, named):
        with pytest.raises(CQLSyntaxError, match=re.escape(named)):
            parse_cql(text)

    def test_syntax_errors(self):
        with pytest.raises(CQLSyntaxError):
            parse_cql("SELECT FROM nothing")
        with pytest.raises(CQLSyntaxError):
            parse_cql("SELECT * FROM A [RANGE 5 fortnights] WHERE A.x = 1")
        with pytest.raises(CQLSyntaxError):
            parse_cql("SELECT * FROM A [RANGE 5 minutes], B [RANGE 9 minutes] WHERE A.x = B.x")
        with pytest.raises(CQLSyntaxError):
            parse_cql("SELECT * FROM A [RANGE 5 minutes] WHERE A.x ~ 3")

    def test_parsed_query_is_executable(self):
        query = parse_cql(
            "SELECT * FROM A [RANGE 60 seconds], B [RANGE 60 seconds] WHERE A.x1 = B.x1"
        )
        wl = generate_clique_workload(2, 1.0, 60, 5, 60, seed=2)
        plan = build_xjoin_plan(query, strategy=STRATEGY_REF)
        report = run_workload(plan, wl.events(), window_length=60.0)
        assert report.result_count > 0


# --------------------------------------------------------------------------- schedulers


class TestSchedulers:
    def _ready(self, context):
        from repro.operators.queues import InterOperatorQueue

        pred = JoinPredicate.equi([(("A", "x"), ("B", "x"))])
        op_a = BinaryJoinOperator("A1", {"A"}, {"B"}, pred)
        op_b = BinaryJoinOperator("A2", {"C"}, {"D"}, JoinPredicate.equi([(("C", "x"), ("D", "x"))]))
        q1 = InterOperatorQueue("q1", context)
        q2 = InterOperatorQueue("q2", context)
        q1.push(make_tuple("A", 5.0, x=1))
        q2.push(make_tuple("C", 1.0, x=1))
        return [
            ReadyInput(op_a, PORT_LEFT, q1, order=0),
            ReadyInput(op_b, PORT_LEFT, q2, order=1),
        ]

    def test_fifo_picks_oldest(self, context, pick):
        ready = self._ready(context)
        assert pick(FIFOScheduler(), ready) == 1

    def test_jit_aware_boosts_producer(self, context, pick):
        ready = self._ready(context)
        scheduler = JITAwareScheduler(boost_steps=2)
        assert pick(scheduler, ready) == 1  # falls back to FIFO
        scheduler.notify_feedback(producer=ready[0].operator, consumer=ready[1].operator, kind="resume")
        assert pick(scheduler, ready) == 0  # boosted producer wins

    def test_factory(self):
        assert build_scheduler("fifo").name == "fifo"
        assert build_scheduler("jit_aware").name == "jit_aware"
        with pytest.raises(ValueError):
            build_scheduler("quantum")


# --------------------------------------------------------------------------- engine


class TestEngine:
    def test_result_collector_order_check(self):
        collector = ResultCollector()
        collector.add(make_tuple("A", 1.0, x=1))
        collector.add(make_tuple("A", 2.0, seq=1, x=2))
        assert collector.temporally_ordered
        collector.add(make_tuple("A", 0.5, seq=2, x=3))
        assert not collector.temporally_ordered
        assert len(collector) == 3

    def test_result_key_is_order_insensitive(self):
        a, b = make_tuple("A", 1.0, x=1), make_tuple("B", 2.0, x=1)
        assert result_key(join_tuples(a, b)) == result_key(join_tuples(b, a))

    def test_synchronous_run(self, small_workload):
        query = ContinuousQuery.from_workload(small_workload)
        plan = build_xjoin_plan(query, strategy=STRATEGY_REF)
        report = run_workload(plan, small_workload.events(), small_workload.window.length)
        assert report.events_processed == len(small_workload.events())
        assert report.results.temporally_ordered
        assert report.cpu_units > 0
        assert report.peak_memory_kb > 0
        assert "arrivals" in report.summary()

    def test_queued_mode_matches_synchronous_results(self, small_workload):
        query = ContinuousQuery.from_workload(small_workload)
        events = small_workload.events()
        sync = run_workload(
            build_xjoin_plan(query, strategy=STRATEGY_JIT), events, small_workload.window.length
        )
        for policy in ALL_POLICIES:
            queued = run_queued(query, events, strategy=STRATEGY_JIT, scheduler=policy)
            assert result_multiset(queued.results.results) == result_multiset(sync.results.results)

    def test_a_plan_attached_to_another_context_is_refused(self, small_workload):
        # Its operators would charge the first run's context, and the second
        # run would report an empty one: 0 units, 0 KB, no error.
        query = ContinuousQuery.from_workload(small_workload)
        events = small_workload.events()
        plan = build_xjoin_plan(query, strategy=STRATEGY_JIT)
        assert run_workload(plan, events, small_workload.window.length).cpu_units > 0
        with pytest.raises(ValueError, match="attached to another execution context"):
            run_workload(plan, events, small_workload.window.length)
        # The context it is attached to is accepted.
        context = ExecutionContext(window=small_workload.window)
        fresh = build_xjoin_plan(query, strategy=STRATEGY_JIT)
        fresh.attach(context)
        assert ExecutionEngine(fresh, context).run(events).cpu_units > 0

    def test_engine_and_run_workload_take_no_setting(self):
        # The synchronous push is the engine's only setting; the queued one
        # is a one-query ShardedEngine, so neither entry point chooses.
        engine_params = tuple(inspect.signature(ExecutionEngine.__init__).parameters)
        run_params = tuple(inspect.signature(run_workload).parameters)
        assert engine_params == ("self", "plan", "context", "keep_results")
        assert run_params == ("plan", "events", "window_length", "keep_results")

    def test_prebuilt_engine_runs_like_run_workload(self, small_workload):
        query = ContinuousQuery.from_workload(small_workload)
        events = small_workload.events()
        expected = run_workload(
            build_xjoin_plan(query, strategy=STRATEGY_JIT), events, small_workload.window.length
        )
        context = ExecutionContext(window=small_workload.window)
        engine = ExecutionEngine(build_xjoin_plan(query, strategy=STRATEGY_JIT), context)
        report = engine.run(events)
        assert report.results.multiset() == expected.results.multiset()
        assert report.cpu_units == expected.cpu_units
        assert report.peak_memory_kb == expected.peak_memory_kb
        assert report.metrics.counters == expected.metrics.counters

    def test_submit_and_flush_drive_the_same_run(self, small_workload):
        query = ContinuousQuery.from_workload(small_workload)
        events = small_workload.events()
        expected = run_workload(
            build_xjoin_plan(query, strategy=STRATEGY_JIT), events, small_workload.window.length
        )
        context = ExecutionContext(window=small_workload.window)
        engine = ExecutionEngine(build_xjoin_plan(query, strategy=STRATEGY_JIT), context)
        for event in events:
            engine.submit(event)
        engine.flush()
        assert engine.events_processed == len(events)
        assert engine.collector.multiset() == expected.results.multiset()
        assert context.cost.cpu_units == expected.cpu_units
        assert context.memory.peak_bytes == expected.metrics.peak_memory_bytes

    def test_keep_results_false_keeps_counts_and_costs(self, small_workload):
        query = ContinuousQuery.from_workload(small_workload)
        events = small_workload.events()
        kept, counted = (
            run_workload(
                build_xjoin_plan(query, strategy=STRATEGY_JIT),
                events,
                small_workload.window.length,
                keep_results=keep,
            )
            for keep in (True, False)
        )
        assert counted.result_count == kept.result_count > 0
        assert counted.results.results == []
        assert counted.cpu_units == kept.cpu_units
        with pytest.raises(RuntimeError, match="not kept"):
            counted.results.multiset()

    def test_run_queued_prepares_the_hosted_plan_before_the_first_event(
        self, small_workload
    ):
        query = ContinuousQuery.from_workload(small_workload)
        events = small_workload.events()
        seen = []

        def prepare(plan):
            assert plan.context is not None
            assert plan.context.clock.now == 0.0
            assert plan.context.cost.cpu_units == 0
            seen.append(plan)

        report = run_queued(query, events, strategy=STRATEGY_JIT, prepare=prepare)
        (plan,) = seen
        # The report reads the collector the hosted plan emits into.
        assert plan.root.result_sink == report.results.add
        assert report.events_processed == len(events)
        assert report.result_count > 0

    def test_run_queued_takes_a_scheduler_factory(self, small_workload):
        query = ContinuousQuery.from_workload(small_workload)
        events = small_workload.events()
        pops = []
        recorded = run_queued(
            query,
            events,
            strategy=STRATEGY_JIT,
            scheduler=lambda: record_pops(build_scheduler("fifo"), pops),
        )
        plain = run_queued(query, events, strategy=STRATEGY_JIT, scheduler="fifo")
        assert pops
        assert recorded.results.results == plain.results.results
        assert recorded.cpu_units == plain.cpu_units
        assert recorded.metrics.counters == plain.metrics.counters
