"""Unit tests for the JIT core: signatures, feedback, lattice, detection,
MNS buffer, blacklist and production-control helpers.

Two of them are differentials against the unpruned ``Identify_MNS`` kept in
``helpers.py`` (docs/JIT.md, "Where a scan starts and stops"): the lattice
whose dead nodes leave ``observe`` against :class:`helpers.UnprunedLattice`,
and the detecting probe whose lookups settle the components before a REF
scan against the full per-entry scan driven by
:class:`helpers.UnprunedDetector`.  ``TestPinnedOpenDifferential`` replays
``golden.json``'s pinned-open nested-loop records.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.core.blacklist import Blacklist, SuspendedTuple
from repro.core.cns_lattice import CNSLattice
from repro.core.config import DetectionMode, JITConfig, RetentionPolicy
from repro.core.feedback import Feedback, FeedbackKind
from repro.core.jit_join import JITJoinOperator
from repro.core.mns_buffer import MNSBuffer
from repro.core.mns_detection import (
    EmptyStateDetector,
    LatticeMNSDetector,
    build_detector,
)
from repro.core.production_control import (
    SIDE_BOTH,
    SIDE_EMPTY,
    SIDE_LEFT,
    SIDE_RIGHT,
    classify_signature,
    split_signature,
)
from repro.core.signature import MNSSignature
from repro.engine import ExecutionEngine
from repro.engine.results import result_multiset
from repro.metrics import CostKind, CostModel
from repro.operators.base import PORT_LEFT, PORT_RIGHT
from repro.operators.predicates import AttributeRef, JoinCondition, JoinPredicate
from repro.operators.state import OperatorState
from repro.plans.builder import PLAN_LEFT_DEEP, STRATEGY_JIT, STRATEGY_REF, build_xjoin_plan
from repro.plans.query import ContinuousQuery
from repro.streams.sources import StreamEvent
from repro.streams.time import Window
from repro.streams.tuples import AtomicTuple, join_tuples

import golden
from helpers import UnprunedDetector, UnprunedLattice, make_tuple


# --------------------------------------------------------------------------- signatures


class TestMNSSignature:
    def test_from_components(self):
        ab = join_tuples(make_tuple("A", 1.0, x=3, y=9), make_tuple("B", 2.0, z=4))
        sig = MNSSignature.from_components(ab, ("A",), [("A", "y"), ("B", "z")])
        assert sig.sources == ("A",)
        assert sig.items == (("A", "y", 9),)
        assert sig.ts == ab.ts

    def test_value_based_equality_ignores_ts(self):
        t1 = make_tuple("A", 1.0, y=9)
        t2 = make_tuple("A", 5.0, seq=3, y=9)
        s1 = MNSSignature.from_components(t1, ("A",), [("A", "y")])
        s2 = MNSSignature.from_components(t2, ("A",), [("A", "y")])
        assert s1 == s2 and hash(s1) == hash(s2)
        assert s1.ts != s2.ts

    def test_matches_super_by_value(self):
        sig = MNSSignature.from_components(make_tuple("A", 1.0, y=9), ("A",), [("A", "y")])
        similar = make_tuple("A", 7.0, seq=5, y=9)
        different = make_tuple("A", 7.0, seq=6, y=8)
        ab = join_tuples(make_tuple("A", 1.0, y=9), make_tuple("B", 2.0, z=1))
        assert sig.matches_super(similar)
        assert not sig.matches_super(different)
        assert sig.matches_super(ab)

    def test_empty_signature_matches_everything(self):
        empty = MNSSignature.empty(ts=3.0)
        assert empty.is_empty
        assert empty.matches_super(make_tuple("Z", 0.0, q=1))

    def test_restrict(self):
        ac = join_tuples(make_tuple("A", 1.0, x=1), make_tuple("C", 2.0, z=3))
        sig = MNSSignature.from_components(ac, ("A", "C"), [("A", "x"), ("C", "z")])
        left = sig.restrict({"A"})
        assert left.sources == ("A",)
        assert left.items == (("A", "x", 1),)

    def test_validation(self):
        with pytest.raises(ValueError):
            MNSSignature(sources=("B", "A"), items=())
        with pytest.raises(ValueError):
            MNSSignature(sources=("A",), items=(("B", "x", 1),))


# --------------------------------------------------------------------------- feedback


class TestFeedback:
    def _sig(self):
        return MNSSignature.from_components(make_tuple("A", 1.0, y=9), ("A",), [("A", "y")])

    def test_constructors(self):
        sig = self._sig()
        assert Feedback.suspend([sig]).kind == FeedbackKind.SUSPEND
        assert Feedback.resume([sig]).is_resumption
        assert Feedback.mark([sig]).is_suspension
        assert Feedback.unmark([sig]).kind == FeedbackKind.UNMARK

    def test_validation(self):
        sig = self._sig()
        with pytest.raises(ValueError):
            Feedback("bogus", (sig,))
        with pytest.raises(ValueError):
            Feedback.suspend([])
        with pytest.raises(ValueError):
            Feedback.resume([sig]).__class__(FeedbackKind.RESUME, (sig,), permanent=True)

    def test_split_and_single(self):
        a = self._sig()
        b = MNSSignature.from_components(make_tuple("B", 1.0, z=2), ("B",), [("B", "z")])
        multi = Feedback.suspend([a, b])
        parts = multi.split()
        assert len(parts) == 2
        assert parts[0].single() == a
        with pytest.raises(ValueError):
            multi.single()


# --------------------------------------------------------------------------- CNS lattice


_LATTICE_CASES = dict(
    components=st.integers(min_value=1, max_value=4),
    max_level=st.integers(min_value=1, max_value=4),
    rows=st.lists(st.lists(st.booleans(), min_size=4, max_size=4), max_size=8),
)


def _check_lattice_against_the_unpruned_one(components, max_level, rows):
    names = [f"s{i}" for i in range(components)]
    lattice = CNSLattice(names, max_level=max_level)
    reference = UnprunedLattice(names, max_level=max_level)
    cost = CostModel()
    lattice.reset()
    for row in rows:
        outcome = dict(zip(names, row))
        alive = len(reference.alive)
        before = cost.count(CostKind.LATTICE_NODE)
        # Only the pending components' outcomes exist: reading any other raises.
        lattice.observe({name: outcome[name] for name in lattice.pending}, cost)
        reference.observe_all(outcome)
        # Exactly the alive nodes were visited, each charged once.
        assert cost.count(CostKind.LATTICE_NODE) - before == alive
        assert {node.sources for node in lattice._alive} == reference.alive
        assert set(lattice.pending) == set().union(*reference.alive)
        assert lattice.pending == tuple(n for n in names if n in lattice.pending)
    assert lattice.surviving_mns() == reference.surviving_mns()
    assert cost.count(CostKind.LATTICE_NODE) <= reference.visited
    lattice.reset()
    assert lattice.pending == tuple(names) and len(lattice._alive) == lattice.size


class TestCNSLattice:
    def test_structure_matches_figure7(self):
        lattice = CNSLattice(["a", "b", "c", "d"])
        # 15 non-empty subsets of 4 components (Figure 7 has 16 including Ø).
        assert lattice.size == 15
        assert len(lattice.level_nodes(1)) == 4
        assert len(lattice.level_nodes(2)) == 6
        node = lattice.node({"a", "b"})
        assert {tuple(sorted(c.sources))[0] for c in node.children} == {"a", "b"}

    def test_max_level_restriction(self):
        lattice = CNSLattice(["a", "b", "c"], max_level=1)
        assert lattice.size == 3
        assert lattice.level_nodes(2) == []

    def test_identify_mns_semantics(self):
        # Components a, b; opposite tuples match a only -> b is the single MNS.
        lattice = CNSLattice(["a", "b"])
        lattice.reset()
        lattice.observe({"a": True, "b": False})
        assert lattice.surviving_mns() == [frozenset({"b"})]

    def test_pair_mns_when_no_single_tuple_matches_both(self):
        # t'1 matches a only, t'2 matches b only -> ab is the minimal MNS.
        lattice = CNSLattice(["a", "b"])
        lattice.reset()
        lattice.observe({"a": True, "b": False})
        lattice.observe({"a": False, "b": True})
        assert lattice.surviving_mns() == [frozenset({"a", "b"})]

    def test_dead_nodes_stay_dead(self):
        # Paper Section IV-A: once a node dies it stays dead even if a later
        # tuple does not match it.
        lattice = CNSLattice(["a", "b"])
        lattice.reset()
        lattice.observe({"a": True, "b": True})
        lattice.observe({"a": False, "b": False})
        assert lattice.surviving_mns() == []

    def test_minimality_pruning(self):
        # If a is an MNS, ab must not be reported (not minimal).
        lattice = CNSLattice(["a", "b"])
        lattice.reset()
        lattice.observe({"a": False, "b": True})
        survivors = lattice.surviving_mns()
        assert frozenset({"a"}) in survivors
        assert frozenset({"a", "b"}) not in survivors

    def test_validation(self):
        with pytest.raises(ValueError):
            CNSLattice([])
        with pytest.raises(ValueError):
            CNSLattice(["a"], max_level=0)
        with pytest.raises(KeyError):
            CNSLattice(["a", "b"]).node({"z"})

    @settings(max_examples=200, deadline=None)
    @given(**_LATTICE_CASES)
    def test_dead_nodes_leave_observe_and_nothing_else_changes(
        self, components, max_level, rows
    ):
        _check_lattice_against_the_unpruned_one(components, max_level, rows)

    @pytest.mark.slow
    @settings(max_examples=5000, deadline=None, derandomize=True)
    @given(**_LATTICE_CASES)
    def test_dead_nodes_leave_observe_sweep(self, components, max_level, rows):
        _check_lattice_against_the_unpruned_one(components, max_level, rows)


# --------------------------------------------------------------------------- detectors


def _settle_against(detector, ab, opposite):
    """Start ``detector`` on ``ab`` and settle it by lookups in the ``opposite``
    C state, as a nested-loop JIT join does; the conditions are those of the
    top join of Figure 1, A.y = C.y and B.z = C.z."""
    lookups = {"A": ("y", ("A", "y")), "B": ("z", ("B", "z"))}

    def matched(component):
        attr, (source, own) = lookups[component]
        return opposite.any_live((("C", attr),), (ab.value(source, own),))

    detector.start(ab)
    return detector.settle(ab, matched)


class TestDetectors:
    def test_lattice_detector_reports_unmatched_component(self, context):
        detector = LatticeMNSDetector(
            ["A", "B"], {"A": [("A", "y")], "B": [("B", "z")]}, context, max_arity=1
        )
        ab = join_tuples(make_tuple("A", 1.0, y=9), make_tuple("B", 1.0, z=5))
        detector.start(ab)
        detector.observe(ab, {"A": False, "B": True})
        signatures = detector.finish(ab)
        assert len(signatures) == 1
        assert signatures[0].sources == ("A",)
        assert signatures[0].items == (("A", "y", 9),)

    def test_settled_lattice_detector_reports_no_false_mns(self, context):
        opposite = OperatorState("C", context)
        opposite.insert(make_tuple("C", 0.5, y=9, z=5))
        detector = LatticeMNSDetector(
            ["A", "B"], {"A": [("A", "y")], "B": [("B", "z")]}, context
        )
        ab_match = join_tuples(make_tuple("A", 1.0, y=9), make_tuple("B", 1.0, z=5))
        assert _settle_against(detector, ab_match, opposite) == ()
        assert detector.pending == () and detector.finish(ab_match) == []
        ab_miss = join_tuples(make_tuple("A", 1.0, y=1), make_tuple("B", 1.0, z=5))
        assert _settle_against(detector, ab_miss, opposite) == ("A",)
        assert [s.sources for s in detector.finish(ab_miss)] == [("A",)]

    def test_settled_lattice_detector_tracks_removals(self, context):
        opposite = OperatorState("C", context)
        c = opposite.insert(make_tuple("C", 0.5, y=9, z=5))
        detector = LatticeMNSDetector(["A"], {"A": [("A", "y")]}, context)
        ab = join_tuples(make_tuple("A", 1.0, y=9), make_tuple("B", 1.0, z=5))
        assert _settle_against(detector, ab, opposite) == ()
        assert detector.finish(ab) == []
        opposite.remove_entry(c)
        assert _settle_against(detector, ab, opposite) == ("A",)
        assert [s.items for s in detector.finish(ab)] == [(("A", "y", 9),)]

    def test_empty_state_detector_reports_nothing(self, context):
        detector = EmptyStateDetector(["A"], {"A": [("A", "y")]}, context)
        ab = join_tuples(make_tuple("A", 1.0, y=9), make_tuple("B", 1.0, z=5))
        assert detector.finish(ab) == []

    def test_only_the_lattice_detector_asks_for_component_outcomes(self, context):
        args = (["A", "B"], {"A": [("A", "y")], "B": [("B", "z")]}, context)
        ab = join_tuples(make_tuple("A", 1.0, y=9), make_tuple("B", 1.0, z=5))
        lattice = LatticeMNSDetector(*args)
        assert lattice.pending == ()  # nothing to feed before start()
        lattice.start(ab)
        assert lattice.pending == ("A", "B")
        lattice.observe(ab, {"A": True, "B": False})
        assert lattice.pending == ("B",)
        lattice.observe(ab, {"B": True})
        assert lattice.pending == () and lattice.finish(ab) == []
        empty_only = EmptyStateDetector(*args)
        empty_only.start(ab)
        assert empty_only.pending == ()

    def test_build_detector_modes(self, context):
        args = (["A"], {"A": [("A", "y")]}, context)
        assert isinstance(build_detector(JITConfig(), *args), LatticeMNSDetector)
        assert isinstance(
            build_detector(JITConfig(detection_mode=DetectionMode.EMPTY_ONLY), *args),
            EmptyStateDetector,
        )
        assert build_detector(JITConfig(detection_mode=DetectionMode.NONE), *args) is None
        assert build_detector(JITConfig(), [], {}, context) is None


# --------------------------------------------------------------------------- the detecting probe


class TestDetectingProbe:
    """AB x C on ``A.y = C.y and B.z = C.z``: one AB tuple probes ten C entries.
    Its AB input is fed by a real A x B join, the producer a detecting port
    needs.  Before the scan each component is settled by one lookup in the C
    state's index on its condition, built on first use; the scan is then
    REF's short-circuit over (A.y = C.y, B.z = C.z): 2 evaluations where y
    matches, else 1 — 15 over the ten entries, whatever the probing tuple's z."""

    #: (y, z) of the ten C entries; the probing AB tuple carries y = 1.
    ENTRIES = ((1, 0), (0, 0), (0, 1), (1, 1), (0, 1), (1, 0), (1, 1), (0, 0), (1, 1), (0, 1))

    def _probe(self, unpruned: bool, z: int = 1):
        context = ExecutionContext(window=Window(60.0))
        predicate = JoinPredicate.equi([(("A", "y"), ("C", "y")), (("B", "z"), ("C", "z"))])
        producer = JITJoinOperator("AB", {"A"}, {"B"}, predicate)
        producer.connect_source(PORT_LEFT, "A")
        producer.connect_source(PORT_RIGHT, "B")
        operator = JITJoinOperator("Op", {"A", "B"}, {"C"}, predicate)
        operator.connect_producer(PORT_LEFT, producer)
        operator.connect_source(PORT_RIGHT, "C")
        producer.attach(context)
        operator.attach(context)
        results = []
        operator.result_sink = results.append
        if unpruned:
            shipped = operator.detectors[PORT_LEFT]
            operator.detectors[PORT_LEFT] = UnprunedDetector(
                shipped.components, shipped.attr_pairs_by_source, context
            )
        for seq, (y, c_z) in enumerate(self.ENTRIES):
            operator.states[PORT_RIGHT].insert(make_tuple("C", 1.0, seq=seq, y=y, z=c_z))
        before = context.cost.snapshot()
        ab = join_tuples(make_tuple("A", 2.0, y=1), make_tuple("B", 2.0, z=z))
        operator.process(ab, PORT_LEFT)
        charged = {
            kind: count - before[kind]
            for kind, count in context.cost.snapshot().items()
            if count != before[kind]
        }
        return charged, [r.component("C").seq for r in results], operator, ab

    def test_lookups_settle_both_components_before_the_scan(self):
        charged, joined, operator, _ab = self._probe(unpruned=False)
        assert joined == [3, 6, 8]
        assert operator.stats["detections_settled"] == 1
        assert operator.detectors[PORT_LEFT].pending == ()
        assert charged == {
            CostKind.INSERT: 1,
            # Two indexes built over the ten entries, then one lookup each.
            CostKind.HASH: 2 * 10 + 2,
            # One entry per lookup (each bucket's newest is live), then the scan.
            CostKind.PROBE_STEP: 1 + 1 + 10,
            CostKind.PREDICATE_EVAL: 15,
            # A's lookup finds a partner with two nodes alive, B's with one.
            CostKind.LATTICE_NODE: 2 + 1,
            CostKind.RESULT_BUILD: 3,
        }
        # A second probe looks the built indexes up again: one HASH each.
        before = operator.require_context().cost.count(CostKind.HASH)
        again = join_tuples(make_tuple("A", 3.0, y=0), make_tuple("B", 3.0, z=0))
        operator.process(again, PORT_LEFT)
        assert operator.require_context().cost.count(CostKind.HASH) == before + 2

    def test_an_unmatched_component_stays_pending_and_leaves_the_scan(self):
        charged, joined, operator, ab = self._probe(unpruned=False, z=7)
        assert joined == []
        assert operator.stats["detections_settled"] == 0
        detector = operator.detectors[PORT_LEFT]
        assert detector.pending == ("B",)  # a resumed partial may still match B
        assert [sig.items for sig in detector.finish(ab)] == [(("B", "z", 7),)]
        assert charged == {
            CostKind.INSERT: 1,
            # As above, plus the producer's lookup of {B.z = 7}'s
            # super-tuples in the bucket of its B state's index on z.
            CostKind.HASH: 2 * 10 + 2 + 1,
            # B's lookup finds no bucket: it examines nothing.
            CostKind.PROBE_STEP: 1 + 10,
            CostKind.PREDICATE_EVAL: 15,
            # The finish phase reads B's surviving node ...
            CostKind.LATTICE_NODE: 2 + 1,
            # ... and suspends it at the producer.
            CostKind.FEEDBACK_MESSAGE: 1,
        }
        assert operator.stats["suspensions_sent"] == 1
        assert operator.producer_of(PORT_LEFT).stats["suspensions_received"] == 1

    @pytest.mark.parametrize("z", [1, 7])
    def test_results_and_their_order_are_those_of_the_unpruned_probe(self, z):
        charged, joined, operator, ab = self._probe(unpruned=False, z=z)
        reference, reference_joined, reference_operator, _ab = self._probe(unpruned=True, z=z)
        assert joined == reference_joined
        assert reference_operator.stats["detections_settled"] == 0
        detector, unpruned = operator.detectors[PORT_LEFT], reference_operator.detectors[PORT_LEFT]
        assert detector.finish(ab) == unpruned.finish(ab)
        # The unpruned probe: no lookup, both components against every entry,
        # both nodes visited per entry and once more by the finish phase.
        # Its only HASH is the producer's extraction of what it suspended
        # ({B.z = 7} when z = 7, nothing when z = 1).
        suspended = 1 if z == 7 else 0
        assert reference.get(CostKind.HASH, 0) == suspended
        assert reference.get(CostKind.FEEDBACK_MESSAGE, 0) == suspended
        assert reference[CostKind.PREDICATE_EVAL] == 2 * 10
        assert reference[CostKind.LATTICE_NODE] == 2 * 10 + 2
        assert reference[CostKind.PROBE_STEP] == 10
        for kind in (CostKind.RESULT_BUILD, CostKind.INSERT, CostKind.FEEDBACK_MESSAGE):
            assert charged.get(kind) == reference.get(kind)

    def test_a_partner_the_lookup_found_may_leave_before_the_scan_reaches_it(self):
        """The one ordering trap.  Op2 (AB x C) probes its C state [j, e] with
        a1b1: A's lookup finds e (its bucket's newest entry), B's finds j.  The
        scan joins j first; that emission reaches Op3 (ABC x D on C.w = D.w), which
        finds no D with w = 5, suspends {C.w = 5} at Op2, and Op2 extracts j
        and e — e before the scan reaches it.

        Which way detection goes: a lookup reads the state as it stood when
        the probe began, so it can only find more partners than the scan
        meets; a component it finds matched the scan might find unmatched,
        and the lookup then declines that MNS, which is always legal.  Here
        it declines none,
        because nothing leaves a state mid-probe except through an emission,
        and an emitted entry has matched every component: every lattice node
        was dead before e left.  Results equal REF's and the unpruned
        probe's, and Op2 detects what the unpruned probe detects."""
        predicate = JoinPredicate.equi([
            (("A", "x"), ("B", "x")), (("A", "y"), ("C", "y")),
            (("B", "z"), ("C", "z")), (("C", "w"), ("D", "w")),
        ])
        query = ContinuousQuery(
            sources=("A", "B", "C", "D"), window=Window(60.0), predicate=predicate
        )
        events = [
            StreamEvent(ts, source, AtomicTuple(source, ts, attrs, seq=seq))
            for ts, source, seq, attrs in (
                (0.0, "D", 0, {"w": 99}),
                (1.0, "C", 0, {"y": 1, "z": 1, "w": 5}),  # j: joins a1b1
                (2.0, "C", 1, {"y": 1, "z": 0, "w": 5}),  # e: matches A only
                (3.0, "A", 0, {"x": 1, "y": 1}),
                (4.0, "B", 0, {"x": 1, "z": 1}),
                (5.0, "D", 1, {"w": 5}),
            )
        ]

        def run(strategy, unpruned=False):
            plan = build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=strategy)
            engine = ExecutionEngine(plan, ExecutionContext(window=Window(60.0)))
            if unpruned:
                op2 = plan.operator_named("Op2")
                shipped = op2.detectors[PORT_LEFT]
                op2.detectors[PORT_LEFT] = UnprunedDetector(
                    shipped.components, shipped.attr_pairs_by_source, op2.require_context()
                )
            return engine.run(events).results.results, plan

        ref, _ = run(STRATEGY_REF)
        settled, plan = run(STRATEGY_JIT)
        unpruned, unpruned_plan = run(STRATEGY_JIT, unpruned=True)
        assert len(ref) == 1 and settled == unpruned
        assert result_multiset(settled) == result_multiset(ref)
        op2 = plan.operator_named("Op2")
        assert op2.stats["tuples_blacklisted"] == 2  # j and e, mid-probe
        assert op2._probed[PORT_LEFT].visited == 1  # the scan met j only
        assert op2.stats["mns_detected"] == 0
        assert op2.stats["detections_settled"] == 1  # the lookups killed both nodes
        reference = unpruned_plan.operator_named("Op2").stats  # never settles
        assert {k: v for k, v in op2.stats.items() if k != "detections_settled"} == {
            k: v for k, v in reference.items() if k != "detections_settled"
        }


class TestPinnedOpenDifferential:
    """``golden.json``'s ``differential`` records: nested-loop JIT plans with
    every gate pinned open keep their per-operator ``stats``, result sequence,
    peak bytes and ``cpu_units``."""

    @pytest.mark.parametrize("name", golden.DIFFERENTIAL_RUNS)
    def test_record_is_reproduced(self, name):
        assert golden.differential_record(name) == golden.load()["differential"][name]


# --------------------------------------------------------------------------- config


class TestJITConfig:
    def test_defaults_and_the_doe_preset(self):
        assert [f.name for f in dataclasses.fields(JITConfig)] == [
            "detection_mode", "max_mns_arity", "handle_type2", "retention_policy",
        ]
        assert JITConfig().detection_mode == DetectionMode.LATTICE
        assert JITConfig().retention_policy == RetentionPolicy.EXACT
        assert JITConfig.doe() == JITConfig(detection_mode=DetectionMode.EMPTY_ONLY)

    def test_validation(self):
        for mode in ("nope", "bloom"):
            with pytest.raises(ValueError):
                JITConfig(detection_mode=mode)
        with pytest.raises(TypeError):
            JITConfig(bloom_bits=4096)
        with pytest.raises(ValueError):
            JITConfig(retention_policy="sometimes")
        with pytest.raises(ValueError):
            JITConfig(max_mns_arity=0)


# --------------------------------------------------------------------------- MNS buffer


def _y_condition():
    return (JoinCondition(AttributeRef("A", "y"), AttributeRef("C", "y")),)


class TestMNSBuffer:
    def _buffer(self, context):
        return MNSBuffer("buf", context, side_sources={"A", "B"}, conditions=_y_condition())

    def _sig(self, y=9, ts=1.0):
        return MNSSignature.from_components(make_tuple("A", ts, y=y), ("A",), [("A", "y")])

    def test_add_and_match(self, context):
        buf = self._buffer(context)
        sig = self._sig(y=9)
        buf.add(sig, now=1.0)
        assert sig in buf and len(buf) == 1
        matching = buf.match(make_tuple("C", 2.0, y=9))
        assert [e.signature for e in matching] == [sig]
        assert buf.match(make_tuple("C", 2.0, y=7)) == []

    def test_add_is_idempotent(self, context):
        buf = self._buffer(context)
        buf.add(self._sig(), now=1.0)
        buf.add(self._sig(), now=5.0)
        assert len(buf) == 1

    def test_remove_releases_memory(self, context):
        buf = self._buffer(context)
        sig = self._sig()
        buf.add(sig, now=1.0)
        assert context.memory.by_category[MNSBuffer.MEMORY_CATEGORY] > 0
        buf.remove(sig)
        assert context.memory.by_category[MNSBuffer.MEMORY_CATEGORY] == 0
        assert buf.remove(sig) is None

    def test_empty_signature_matches_any_partner(self, context):
        buf = self._buffer(context)
        buf.add(MNSSignature.empty(ts=0.0), now=0.0)
        assert len(buf.match(make_tuple("C", 1.0, y=123))) == 1

    def test_purge_by_liveness(self, context):
        buf = self._buffer(context)
        s1, s2 = self._sig(y=1), self._sig(y=2)
        buf.add(s1, 0.0)
        buf.add(s2, 0.0)
        dead = buf.purge(lambda sig: sig == s1)
        assert [e.signature for e in dead] == [s2]
        assert len(buf) == 1

    def test_min_active_ts(self, context):
        buf = self._buffer(context)
        assert buf.min_active_ts() is None
        buf.add(self._sig(y=1, ts=5.0), 5.0)
        buf.add(self._sig(y=2, ts=2.0), 5.0)
        assert buf.min_active_ts() == 2.0

    def test_blocks_suspension_detects_possible_cycle(self, context):
        buf = self._buffer(context)
        buf.add(self._sig(y=9), now=0.0)  # partner requires C.y = 9
        # A new opposite-side suspension hiding C tuples with y=9 would hide
        # this MNS's partner -> blocked.
        assert buf.blocks_suspension({("C", "y"): 9}, {("A", "y"): 1})
        # One that hides only C.y=5 tuples cannot conflict -> allowed.
        assert not buf.blocks_suspension({("C", "y"): 5}, {("A", "y"): 1})
        # The Ø signature (no constraints) is always blocked by a non-empty buffer.
        assert buf.blocks_suspension({}, {})

    def test_partner_checks_pair_opposite_ref_with_value(self, context):
        buf = self._buffer(context)
        entry = buf.add(self._sig(y=9), now=0.0)
        assert entry.partner_checks == ((AttributeRef("C", "y"), 9),)
        assert buf.partner_map(self._sig(y=9)) == {("C", "y"): 9}

    def test_signature_without_condition_attribute_is_unchecked(self, context):
        buf = self._buffer(context)
        # A signature over A.x records nothing the A.y = C.y condition reads,
        # so it carries no partner check and every C tuple matches it.
        sig = MNSSignature.from_components(make_tuple("A", 1.0, x=4), ("A",), [("A", "x")])
        assert buf.add(sig, now=1.0).partner_checks == ()
        assert [e.signature for e in buf.match(make_tuple("C", 2.0, y=123))] == [sig]


# --------------------------------------------------------------------------- blacklist


class TestBlacklist:
    def _sig(self, y=9, ts=1.0):
        return MNSSignature.from_components(make_tuple("A", ts, y=y), ("A",), [("A", "y")])

    def test_add_and_match_arrival(self, context):
        bl = Blacklist("bl", context)
        sig = self._sig(y=9)
        bl.add_suspended(sig, make_tuple("A", 1.0, y=9), joined_upto_seq=3, now=1.0)
        assert sig in bl and len(bl) == 1
        similar = make_tuple("A", 5.0, seq=7, y=9)
        entry = bl.match_arrival(similar)
        assert entry is not None and entry.signature == sig
        assert bl.match_arrival(make_tuple("A", 5.0, seq=8, y=1)) is None

    def test_permanent_entries_drop_tuples(self, context):
        bl = Blacklist("bl", context)
        sig = self._sig()
        suspended = bl.add_suspended(sig, make_tuple("A", 1.0, y=9), 0, 1.0, permanent=True)
        assert suspended is None
        assert bl.entry(sig).permanent

    def test_pop_entry_releases_memory(self, context):
        bl = Blacklist("bl", context)
        sig = self._sig()
        bl.add_suspended(sig, make_tuple("A", 1.0, y=9), 0, 1.0)
        assert context.memory.by_category[Blacklist.MEMORY_CATEGORY] > 0
        entry = bl.pop_entry(sig)
        assert entry is not None and len(entry.suspended) == 1
        assert context.memory.by_category[Blacklist.MEMORY_CATEGORY] == 0
        assert bl.pop_entry(sig) is None

    def test_min_live_ts(self, context):
        bl = Blacklist("bl", context)
        assert bl.min_live_ts() is None
        bl.add_suspended(self._sig(y=1, ts=10.0), make_tuple("A", 12.0, y=1), 0, 12.0)
        bl.add_suspended(self._sig(y=2, ts=4.0), make_tuple("A", 6.0, y=2), 0, 6.0)
        assert bl.min_live_ts() == 4.0

    def test_purge_drops_expired(self, context):
        bl = Blacklist("bl", context)
        sig = self._sig(ts=0.0)
        bl.add_suspended(sig, make_tuple("A", 0.0, y=9), 0, 0.0)
        dropped = bl.purge(now=100.0, retention=50.0)
        assert dropped == 1
        assert sig not in bl

    def test_purge_keeps_propagated_entries(self, context):
        bl = Blacklist("bl", context)
        sig = self._sig(ts=0.0)
        entry = bl.ensure_entry(sig, 0.0)
        entry.propagated_upstream = True
        bl.purge(now=100.0, retention=50.0)
        assert sig in bl

    def test_empty_signature_diverts_everything(self, context):
        bl = Blacklist("bl", context)
        bl.ensure_entry(MNSSignature.empty(), now=0.0)
        assert bl.match_arrival(make_tuple("A", 1.0, y=42)) is not None

    def test_a_record_carries_its_moments_and_history(self, context):
        bl = Blacklist("bl", context)
        sig = self._sig(y=9)
        first = bl.add_suspended(
            sig, make_tuple("A", 1.0, y=9), joined_upto_seq=5, now=1.0, original_seq=2,
            created=3,
        )
        again = bl.add_suspended(
            sig, make_tuple("A", 1.0, y=9), joined_upto_seq=8, now=2.0, original_seq=2,
            created=6, previous=first,
        )
        assert (first.created, first.ended, first.previous) == (3, None, None)
        assert (again.created, again.previous) == (6, first)

    def test_suspended_tuple_met(self, context):
        s = SuspendedTuple(
            tuple=make_tuple("A", 1.0, y=9),
            joined_upto_seq=5,
            suspended_at=1.0,
            original_seq=7,
            met_seqs=frozenset({8}),
            created=4,
        )
        # 2 came back from a suspension that overlapped this one's: not met.
        other = SuspendedTuple(
            tuple=make_tuple("B", 1.0, y=9), joined_upto_seq=-1, suspended_at=0.5,
            original_seq=2, created=3, ended=4,
        )
        assert s.met(4, None, context.cost)
        assert not s.met(2, other, context.cost)
        assert s.met(8, other, context.cost)
        assert not s.met(9, None, context.cost)


# --------------------------------------------------------------------------- production control


class TestProductionControl:
    def _sig(self, sources, attrs, tup):
        return MNSSignature.from_components(tup, sources, attrs)

    def test_classify_type1_and_type2(self):
        ab = join_tuples(make_tuple("A", 1.0, x=1), make_tuple("B", 1.0, y=2))
        a_sig = self._sig(("A",), [("A", "x")], ab)
        assert classify_signature(a_sig, {"A", "B"}, {"C", "D"}) == SIDE_LEFT
        cd = join_tuples(make_tuple("C", 1.0, z=3), make_tuple("D", 1.0, w=4))
        d_sig = self._sig(("D",), [("D", "w")], cd)
        assert classify_signature(d_sig, {"A", "B"}, {"C", "D"}) == SIDE_RIGHT
        ac = join_tuples(make_tuple("A", 1.0, x=1), make_tuple("C", 1.0, z=3))
        ac_sig = self._sig(("A", "C"), [("A", "x"), ("C", "z")], ac)
        assert classify_signature(ac_sig, {"A", "B"}, {"C", "D"}) == SIDE_BOTH
        assert classify_signature(MNSSignature.empty(), {"A"}, {"B"}) == SIDE_EMPTY

    def test_classify_rejects_unknown_sources(self):
        sig = self._sig(("A",), [("A", "x")], make_tuple("A", 1.0, x=1))
        with pytest.raises(ValueError):
            classify_signature(sig, {"B"}, {"C"})

    def test_split_signature(self):
        ac = join_tuples(make_tuple("A", 1.0, x=1), make_tuple("C", 1.0, z=3))
        sig = self._sig(("A", "C"), [("A", "x"), ("C", "z")], ac)
        left, right = split_signature(sig, {"A", "B"}, {"C", "D"})
        assert left is not None and left.sources == ("A",)
        assert right is not None and right.sources == ("C",)
        only_left, none_right = split_signature(
            self._sig(("A",), [("A", "x")], make_tuple("A", 1.0, x=1)), {"A"}, {"C"}
        )
        assert only_left is not None and none_right is None
        assert split_signature(MNSSignature.empty(), {"A"}, {"B"}) == (None, None)
