"""Unit tests for metrics, predicates, states, existence lookups, queues and unary operators."""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.metrics import CostKind, CostModel, CostWeights, MemoryModel, MetricsReport
from repro.operators.aggregate import AggregateFunction, WindowAggregateOperator
from repro.operators.base import PORT_INPUT, PORT_LEFT, PORT_RIGHT
from repro.operators.join import BinaryJoinOperator, opposite_port
from repro.operators.predicates import (
    AttributeCompare,
    AttributeRef,
    JoinCondition,
    JoinPredicate,
    SelectionPredicate,
)
from repro.operators.queues import InterOperatorQueue
from repro.operators.selection import SelectionOperator
from repro.operators.state import OperatorState, key_function
from repro.streams.time import Window

from helpers import make_tuple


# --------------------------------------------------------------------------- metrics


class TestCostModel:
    def test_charge_and_weighting(self):
        cost = CostModel(CostWeights(probe_step=2.0, insert=3.0))
        cost.charge(CostKind.PROBE_STEP, 5)
        cost.charge(CostKind.INSERT)
        assert cost.count(CostKind.PROBE_STEP) == 5
        assert cost.cpu_units == 5 * 2.0 + 3.0

    def test_unknown_kind_rejected(self):
        cost = CostModel()
        with pytest.raises(KeyError):
            cost.charge("not_a_kind")
        with pytest.raises(KeyError):
            CostWeights().weight("not_a_kind")

    def test_reset_and_snapshot(self):
        cost = CostModel()
        cost.charge(CostKind.HASH, 3)
        snap = cost.snapshot()
        assert snap[CostKind.HASH] == 3
        cost.reset()
        assert cost.cpu_units == 0

    def test_wall_clock(self):
        cost = CostModel()
        cost.start_wall_clock()
        cost.stop_wall_clock()
        assert cost.wall_seconds >= 0.0

    def test_weights_as_dict_covers_all_kinds(self):
        assert set(CostWeights().as_dict()) == set(CostKind.ALL)


class TestMemoryModel:
    def test_peak_tracking(self):
        mem = MemoryModel()
        mem.allocate(100, "state")
        mem.allocate(50, "queue")
        mem.release(100, "state")
        mem.allocate(20, "state")
        assert mem.current_bytes == 70
        assert mem.peak_bytes == 150
        assert mem.peak_by_category["state"] == 100

    def test_underflow_detected(self):
        mem = MemoryModel()
        mem.allocate(10)
        with pytest.raises(RuntimeError):
            mem.release(20)

    def test_negative_rejected(self):
        mem = MemoryModel()
        with pytest.raises(ValueError):
            mem.allocate(-1)

    def test_report_from_models(self):
        cost, mem = CostModel(), MemoryModel()
        cost.charge(CostKind.INSERT, 4)
        mem.allocate(2048)
        report = MetricsReport.from_models(cost, mem, results_produced=9)
        assert report.results_produced == 9
        assert report.peak_memory_kb == 2.0
        assert report.counters[CostKind.INSERT] == 4


# --------------------------------------------------------------------------- predicates


class TestPredicates:
    def test_equi_condition(self):
        cond = JoinCondition(AttributeRef("A", "x"), AttributeRef("B", "x"))
        a = make_tuple("A", 1.0, x=5)
        b_match = make_tuple("B", 2.0, x=5)
        b_miss = make_tuple("B", 2.0, x=6)
        assert cond.evaluate(a, b_match)
        assert not cond.evaluate(a, b_miss)
        assert cond.sources == frozenset({"A", "B"})
        assert cond.ref_for("A").attribute == "x"
        with pytest.raises(KeyError):
            cond.ref_for("C")

    def test_condition_evaluates_in_either_operand_order(self):
        cond = JoinCondition(AttributeRef("A", "x"), AttributeRef("B", "x"))
        a, b = make_tuple("A", 1.0, x=5), make_tuple("B", 2.0, x=5)
        assert cond.evaluate(a, b) and cond.evaluate(b, a)
        assert str(cond) == "A.x = B.x"

    def test_condition_rejects_same_source(self):
        with pytest.raises(ValueError):
            JoinCondition(AttributeRef("A", "x"), AttributeRef("A", "y"))

    def test_join_predicate_between(self):
        pred = JoinPredicate.equi(
            [(("A", "x"), ("B", "x")), (("A", "y"), ("C", "y")), (("B", "z"), ("C", "z"))]
        )
        assert pred.sources == frozenset({"A", "B", "C"})
        between = pred.conditions_between({"A", "B"}, {"C"})
        assert len(between) == 2
        with pytest.raises(ValueError):
            pred.conditions_between({"A"}, {"A", "B"})

    def test_selection_predicate(self):
        pred = SelectionPredicate((AttributeCompare(AttributeRef("A", "x"), ">", 10),))
        assert pred.evaluate(make_tuple("A", 0, x=11))
        assert not pred.evaluate(make_tuple("A", 0, x=10))
        assert pred.sources == frozenset({"A"})
        with pytest.raises(ValueError):
            SelectionPredicate(())
        with pytest.raises(ValueError):
            AttributeCompare(AttributeRef("A", "x"), "??", 1)


# --------------------------------------------------------------------------- operator state


class TestOperatorState:
    def test_purge_probe_insert_cycle(self, context):
        state = OperatorState("S_A", context)
        for i in range(5):
            state.insert(make_tuple("A", float(i), seq=i, x=i))
        assert len(state) == 5
        removed = state.purge(horizon=2.0)
        assert [e.tuple.seq for e in removed] == [0, 1]
        assert len(state) == 3
        probed = [e.tuple.seq for e in state.probe()]
        assert probed == [2, 3, 4]

    def test_insertion_order_and_seq(self, context):
        state = OperatorState("S", context)
        e1 = state.insert(make_tuple("A", 5.0, seq=0, x=1))
        e2 = state.insert(make_tuple("A", 1.0, seq=1, x=2))  # older ts, later insert
        assert (e1.seq, e2.seq) == (0, 1)
        assert [e.seq for e in state.probe()] == [0, 1]

    def test_reinsert_with_original_seq(self, context):
        state = OperatorState("S", context)
        entry = state.insert(make_tuple("A", 1.0, x=1))
        state.remove_entry(entry)
        replay = state.insert(entry.tuple, seq=entry.seq)
        assert replay.seq == entry.seq
        fresh = state.insert(make_tuple("A", 2.0, seq=9, x=2))
        assert fresh.seq > replay.seq

    def test_purge_floor_retains_old_entries(self, context):
        state = OperatorState("S", context)
        state.insert(make_tuple("A", 0.0, x=1))
        state.purge_floor = 0.0
        removed = state.purge(horizon=100.0)
        assert removed == []
        state.purge_floor = None
        assert len(state.purge(horizon=100.0)) == 1

    def test_extract_moves_matching_entries(self, context):
        state = OperatorState("S", context)
        for i in range(4):
            state.insert(make_tuple("A", float(i), seq=i, x=i % 2))
        removed = state.extract(lambda t: t.get("x") == 0)
        assert len(removed) == 2
        assert all(e.removed for e in removed)
        assert len(state) == 2

    def test_memory_accounting(self, context):
        state = OperatorState("S", context)
        t = make_tuple("A", 0.0, x=1)
        state.insert(t)
        assert context.memory.current_bytes == t.size_bytes
        state.purge(horizon=10.0)
        assert context.memory.current_bytes == 0

    def test_hash_index_probe(self, context):
        state = OperatorState("S", context, key_template=(("A", "x"),))
        state.insert(make_tuple("A", 0.0, seq=0, x=7))
        state.insert(make_tuple("A", 0.0, seq=1, x=8))
        matches = state.probe_index([((("A", "x"),), (7,))])
        assert [e.tuple.get("x") for e in matches] == [7]
        assert key_function((("A", "x"),))(make_tuple("A", 0.0, x=9)) == (9,)
        both = key_function((("A", "x"), ("A", "y")))
        assert both(make_tuple("A", 0.0, x=9, y=3)) == (9, 3)

    def test_probe_index_builds_the_index_on_first_use(self, context):
        state = OperatorState("S", context)
        state.insert(make_tuple("A", 0.0, x=1))
        assert [e.tuple.get("x") for e in state.probe_index([((("A", "x"),), (1,))])] == [1]

    def test_remove_entry_twice_fails(self, context):
        state = OperatorState("S", context)
        entry = state.insert(make_tuple("A", 0.0, x=1))
        state.remove_entry(entry)
        with pytest.raises(KeyError):
            state.remove_entry(entry)

    def test_compaction_keeps_live_entries(self, context):
        state = OperatorState("S", context)
        entries = [state.insert(make_tuple("A", float(i), seq=i, x=i)) for i in range(100)]
        state.purge(horizon=90.0)
        assert len(state) == 10
        assert [e.tuple.get("x") for e in state.probe()] == list(range(90, 100))
        del entries

    def test_a_regular_probe_starts_behind_what_a_floor_retains(self, context):
        state = OperatorState("S", context)
        for i in range(6):
            state.insert(make_tuple("A", float(i), seq=i, x=i))
        state.purge_floor = 0.0
        assert state.purge(horizon=4.0) == []
        assert (len(state), state.live_count) == (6, 2)
        before = context.cost.count(CostKind.PROBE_STEP)
        assert [e.tuple.seq for e in state.probe(live_only_after=4.0)] == [4, 5]
        assert context.cost.count(CostKind.PROBE_STEP) - before == 2
        assert [e.tuple.seq for e in state.probe()] == list(range(6))  # a replay sees all
        state.purge_floor = None
        assert len(state.purge(horizon=4.0)) == 4
        assert (len(state), state.live_count) == (2, 2)

    def test_probe_after_an_order_stamp(self, context):
        state = OperatorState("S", context)
        entries = [state.insert(make_tuple("A", 0.0, seq=i, x=i)) for i in range(5)]
        state.remove_entry(entries[1])
        again = state.insert(entries[1].tuple, seq=entries[1].seq)  # old seq, fresh order
        assert state.last_order == again.order > entries[4].order
        before = context.cost.count(CostKind.PROBE_STEP)
        assert list(state.probe(after_order=entries[2].order)) == [entries[3], entries[4], again]
        assert context.cost.count(CostKind.PROBE_STEP) - before == 3
        assert list(state.probe(after_order=state.last_order)) == []
        assert len(list(state.probe(after_order=-1))) == 5


class _RecordingList(list):
    """A list that remembers which positions were read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, index):
        self.read.append(index)
        return super().__getitem__(index)


_STATE_STEPS = st.one_of(
    st.tuples(st.just("insert"), st.floats(min_value=0.0, max_value=25.0)),  # how far back
    st.tuples(st.just("advance"), st.floats(min_value=0.5, max_value=8.0)),
    st.tuples(st.just("floor"), st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0))),
    st.tuples(st.just("purge"), st.none()),
    st.tuples(st.just("extract"), st.integers(min_value=2, max_value=5)),
    st.tuples(st.just("reenter"), st.integers(min_value=1, max_value=6)),
)


class TestLiveCursor:
    """The cursor differential: whatever happened to the state, a regular probe
    is the full scan filtered by the horizon, and it neither reads nor charges
    what sits before the cursor."""

    WINDOW = 10.0

    @staticmethod
    def _check(state, horizon, floor_purged):
        cost = state.context.cost
        expected = [e for e in state.entries() if e.ts >= horizon]
        leading = next(
            (i for i, e in enumerate(state._entries) if not e.removed and e.ts >= horizon),
            len(state._entries),
        )
        recording = state._entries = _RecordingList(state._entries)
        before = cost.count(CostKind.PROBE_STEP)
        assert list(state.probe(live_only_after=horizon)) == expected
        assert cost.count(CostKind.PROBE_STEP) - before == len(expected)
        assert state._live_start <= leading
        if floor_purged:
            # The purge just made moved the cursor to the first live entry.
            assert all(index >= leading for index in recording.read)
        retained = [e for e in state._entries[: state._live_start] if not e.removed]
        assert state.live_count == len(state) - len(retained)
        assert all(e.ts < horizon for e in retained)
        for stamp in (0, state.last_order // 2, state.last_order):
            before = cost.count(CostKind.PROBE_STEP)
            behind = [e for e in state.entries() if e.order > stamp]
            assert list(state.probe(after_order=stamp)) == behind
            assert cost.count(CostKind.PROBE_STEP) - before == len(behind)

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_STATE_STEPS, min_size=1, max_size=60))
    def test_probe_is_the_full_scan_filtered_by_the_horizon(self, steps):
        self._play(steps)

    @pytest.mark.slow
    @settings(max_examples=3000, deadline=None, derandomize=True)
    @given(steps=st.lists(_STATE_STEPS, min_size=1, max_size=120))
    def test_probe_is_the_full_scan_sweep(self, steps):
        self._play(steps)

    def _play(self, steps):
        context = ExecutionContext(window=Window(self.WINDOW))
        state = OperatorState("S", context)
        now, horizon, serial = 30.0, float("-inf"), 0
        for action, argument in steps:
            floor_purged = False
            if action == "insert":
                # Out-of-order timestamps: a resumed partial enters late and old.
                state.insert(make_tuple("A", now - argument, seq=serial, x=serial))
                serial += 1
            elif action == "advance":
                now += argument
            elif action == "floor":
                state.purge_floor = None if argument is None else now - self.WINDOW - argument
            elif action == "purge":
                horizon = now - self.WINDOW
                state.purge(horizon)
                floor_purged = state.purge_floor is not None
            elif action == "extract":
                state.extract(lambda t: t.get("x") % argument == 0)
            else:  # a probe in flight while an emission re-enters the state
                probe = state.probe(live_only_after=horizon)
                snapshot = [e for e in state.entries() if e.ts >= horizon]
                taken = list(islice(probe, argument))  # the probe has begun
                assert taken == snapshot[: len(taken)]
                for _ in range(40):  # later appends ...
                    state.insert(make_tuple("A", now, seq=serial, x=serial))
                    serial += 1
                # ... and removals, enough of them to compact the list unless
                # survivors of earlier rounds dominate it
                state.extract(lambda t: t.get("x") % 7 != 0)
                rest = snapshot[len(taken):]
                assert list(probe) == [e for e in rest if not e.removed]
            self._check(state, horizon, floor_purged)


#: Half-second steps, so stamps often sit exactly on a horizon or a floor.
_HALVES = st.integers(min_value=0, max_value=50).map(lambda k: k / 2)
_EXPIRY_STEPS = st.one_of(
    st.tuples(st.just("insert"), _HALVES),  # how far back
    st.tuples(st.just("burst"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("reinsert"), st.integers(min_value=0, max_value=50)),
    # Time moves, then the state purges: what a join does per arrival.
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=16).map(lambda k: k / 2)),
    st.tuples(st.just("floor"), st.one_of(st.none(), _HALVES)),
    st.tuples(st.just("purge"), st.none()),
    st.tuples(st.just("extract"), st.integers(min_value=1, max_value=5)),
)


class TestExactExpiry:
    """Expiry against a brute-force model: purging walks the entry list from
    its head and keeps late inserts in a side heap, and whatever arrives late
    or leaves early, a purge removes exactly the present entries below
    ``min(horizon, floor)``, charges one ``PURGE`` each, and leaves
    ``live_count`` / ``has_live`` what their definitions say."""

    WINDOW = 10.0

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(_EXPIRY_STEPS, min_size=1, max_size=80))
    def test_purge_removes_exactly_what_expired(self, steps):
        self._play(steps)

    @pytest.mark.slow
    @settings(max_examples=3000, deadline=None, derandomize=True)
    @given(steps=st.lists(_EXPIRY_STEPS, min_size=1, max_size=150))
    def test_purge_removes_exactly_what_expired_sweep(self, steps):
        self._play(steps)

    def _play(self, steps):
        context = ExecutionContext(window=Window(self.WINDOW))
        cost, memory = context.cost, context.memory
        state = OperatorState("S", context)
        present = []  # the model: entries in insertion order
        extracted = []  # candidates for a late re-insert under their old seq
        # Entries stamped below this order stamp sit before the live cursor.
        cursor = 0
        now, horizon, serial = 30.0, float("-inf"), 0

        def insert(tup, seq=None):
            present.append(state.insert(tup, seq=seq))

        for action, argument in steps:
            if action == "insert":
                insert(make_tuple("A", now - argument, seq=serial, x=serial))
                serial += 1
            elif action == "burst":
                for _ in range(argument):
                    insert(make_tuple("A", now, seq=serial, x=serial))
                    serial += 1
            elif action == "reinsert":
                if extracted:
                    entry = extracted.pop(argument % len(extracted))
                    insert(entry.tuple, seq=entry.seq)
            elif action == "floor":
                state.purge_floor = None if argument is None else now - self.WINDOW - argument
            elif action == "extract":
                taken = state.extract(lambda t: t.get("x") % argument == 0)
                assert {id(e) for e in taken} == {
                    id(e) for e in present if e.tuple.get("x") % argument == 0
                }
                present = [e for e in present if not e.removed]
                extracted.extend(taken)
            else:
                if action == "tick":
                    now += argument
                horizon = now - self.WINDOW
                floor = state.purge_floor
                if floor is not None:
                    live = [e for e in present if e.order >= cursor and e.ts >= horizon]
                    cursor = live[0].order if live else state.last_order + 1
                cutoff = horizon if floor is None else min(horizon, floor)
                expired = [e for e in present if e.ts < cutoff]
                before = cost.count(CostKind.PURGE)
                removed = state.purge(horizon)
                assert sorted(id(e) for e in removed) == sorted(id(e) for e in expired)
                assert cost.count(CostKind.PURGE) - before == len(expired)
                present = [e for e in present if e.ts >= cutoff]
                assert all(not e.removed for e in present)
                assert all(e.ts < horizon for e in present if e.order < cursor)
            assert [id(e) for e in state.entries()] == [id(e) for e in present]
            assert len(state) == len(present)
            assert memory.current_bytes == sum(e.tuple.size_bytes for e in present)
            assert state.live_count == sum(1 for e in present if e.order >= cursor)
            assert state.has_live() == bool(present)
            for probe_horizon in (horizon, now - self.WINDOW, now - 2 * self.WINDOW):
                expected = any(e.ts >= probe_horizon for e in present)
                assert state.has_live(probe_horizon) == expected


# --------------------------------------------------------------------------- existence lookups


class TestExistenceLookup:
    """``OperatorState.any_live``: the exact answer to "might an opposite entry
    match this component?" that settles MNS detection before a nested-loop
    probe, served by an index built on first use and kept by the state's own
    mutations (no per-insert hook feeds it)."""

    Y = (("C", "y"),)

    def test_no_false_negatives(self, context):
        state = OperatorState("S", context)
        for i in range(50):
            state.insert(make_tuple("C", float(i), seq=i, y=i))
        assert all(state.any_live(self.Y, (i,)) for i in range(50))

    def test_no_false_positives(self, context):
        state = OperatorState("S", context)
        for i in range(0, 50, 2):
            state.insert(make_tuple("C", float(i), seq=i, y=i))
        assert not any(state.any_live(self.Y, (i,)) for i in range(-1, 51, 2))

    def test_a_fresh_state_answers_with_the_lookup_alone(self, context):
        state = OperatorState("S", context)
        assert not state.any_live(self.Y, (1,))
        assert not state.any_live(self.Y, (1,), horizon=0.0)
        assert context.cost.count(CostKind.HASH) == 2  # nothing to build, one lookup each
        assert context.cost.count(CostKind.PROBE_STEP) == 0

    def test_removals_are_seen_entry_by_entry(self, context):
        state = OperatorState("S", context)
        first = state.insert(make_tuple("C", 0.0, seq=0, y=7))
        second = state.insert(make_tuple("C", 1.0, seq=1, y=7))
        assert state.any_live(self.Y, (7,))
        state.remove_entry(first)
        assert state.any_live(self.Y, (7,))  # the other y = 7 entry is still present
        state.remove_entry(second)
        assert not state.any_live(self.Y, (7,))

    def test_purged_and_extracted_entries_are_gone(self, context):
        state = OperatorState("S", context)
        for i in range(6):
            state.insert(make_tuple("C", float(i), seq=i, y=i % 2))
        assert state.any_live(self.Y, (0,))  # builds the index over all six
        state.purge(horizon=4.0)
        assert [e.tuple.seq for e in state.entries()] == [4, 5]
        assert state.any_live(self.Y, (0,)) and state.any_live(self.Y, (1,))
        state.extract(lambda t: t.get("y") == 0, lookup=(self.Y, (0,)))
        assert not state.any_live(self.Y, (0,))
        assert state.any_live(self.Y, (1,))

    def test_a_horizon_hides_what_a_purge_floor_retains(self, context):
        state = OperatorState("S", context)
        for i in range(6):
            state.insert(make_tuple("C", float(i), seq=i, y=i))
        state.purge_floor = 0.0
        assert state.purge(horizon=4.0) == []
        assert state.any_live(self.Y, (1,))  # retained: present, so a replay sees it
        assert not state.any_live(self.Y, (1,), horizon=4.0)  # but not live
        assert state.any_live(self.Y, (5,), horizon=4.0)

    def test_a_two_attribute_component_needs_both_values(self, context):
        state = OperatorState("S", context)
        state.insert(make_tuple("C", 0.0, seq=0, y=1, z=2))
        state.insert(make_tuple("C", 0.0, seq=1, y=2, z=1))
        template = (("C", "y"), ("C", "z"))
        assert state.any_live(template, (1, 2)) and state.any_live(template, (2, 1))
        assert not state.any_live(template, (1, 1))
        assert not state.any_live(template, (2, 2))


# --------------------------------------------------------------------------- queues


class TestInterOperatorQueue:
    def test_fifo_order(self, context):
        q = InterOperatorQueue("q", context)
        t1, t2 = make_tuple("A", 1.0, x=1), make_tuple("A", 2.0, x=2)
        q.push(t1)
        q.push(t2)
        assert q.peek() is t1
        assert q.pop() is t1
        assert q.pop() is t2
        assert not q
        with pytest.raises(IndexError):
            q.pop()

    def test_capacity(self, context):
        q = InterOperatorQueue("q", context, capacity=1)
        q.push(make_tuple("A", 1.0, x=1))
        with pytest.raises(OverflowError):
            q.push(make_tuple("A", 2.0, x=2))
        with pytest.raises(ValueError):
            InterOperatorQueue("bad", context, capacity=0)

    def test_memory_accounting(self, context):
        q = InterOperatorQueue("q", context)
        t = make_tuple("A", 1.0, x=1)
        q.push(t)
        assert context.memory.by_category["queue"] == t.size_bytes
        q.drain()
        assert context.memory.by_category["queue"] == 0

    def test_stats(self, context):
        q = InterOperatorQueue("q", context)
        for i in range(3):
            q.push(make_tuple("A", float(i), seq=i, x=i))
        q.pop()
        assert q.total_pushed == 3
        assert q.max_length == 3
        assert len(q) == 2


# --------------------------------------------------------------------------- unary operators


def _attach(operator, context):
    operator.attach(context)
    collected = []
    operator.result_sink = collected.append
    return collected


class TestSelectionOperator:
    def test_filters_tuples(self, context):
        pred = SelectionPredicate((AttributeCompare(AttributeRef("A", "x"), ">", 5),))
        op = SelectionOperator("Sel", pred)
        out = _attach(op, context)
        context.clock.advance_to(1.0)
        op.process(make_tuple("A", 1.0, x=10), PORT_INPUT)
        op.process(make_tuple("A", 1.0, x=3), PORT_INPUT)
        assert len(out) == 1
        assert op.passed == 1 and op.rejected == 1

    def test_output_sources_default_to_predicate(self):
        pred = SelectionPredicate((AttributeCompare(AttributeRef("A", "x"), ">", 5),))
        assert SelectionOperator("Sel", pred).output_sources() == frozenset({"A"})


class TestAggregateOperator:
    def test_count_over_window(self, context):
        op = WindowAggregateOperator("agg", AggregateFunction.COUNT, group_ref=AttributeRef("A", "g"))
        out = _attach(op, context)
        for i, ts in enumerate([1.0, 2.0, 3.0]):
            context.clock.advance_to(ts)
            op.process(make_tuple("A", ts, seq=i, g="grp", v=i), PORT_INPUT)
        assert op.current_value("grp") == 3
        assert [t.attrs["value"] for t in out] == [1, 2, 3]

    def test_expiry_reduces_aggregate(self, context):
        op = WindowAggregateOperator("agg", AggregateFunction.SUM, value_ref=AttributeRef("A", "v"))
        _attach(op, context)
        context.clock.advance_to(1.0)
        op.process(make_tuple("A", 1.0, v=10), PORT_INPUT)
        context.clock.advance_to(70.0)  # window is 60s -> first tuple expired
        op.process(make_tuple("A", 70.0, seq=1, v=5), PORT_INPUT)
        assert op.current_value() == 5

    def test_avg_min_max(self, context):
        for function, expected in ((AggregateFunction.AVG, 2.0), (AggregateFunction.MIN, 1), (AggregateFunction.MAX, 3)):
            op = WindowAggregateOperator("agg", function, value_ref=AttributeRef("A", "v"))
            _attach(op, context)
            fresh = ExecutionContext(window=Window(60.0))
            op.attach(fresh)
            for i, v in enumerate([1, 2, 3]):
                fresh.clock.advance_to(float(i + 1))
                op.process(make_tuple("A", float(i + 1), seq=i, v=v), PORT_INPUT)
            assert op.current_value() == expected

    def test_invalid_function(self):
        with pytest.raises(ValueError):
            WindowAggregateOperator("agg", "median", value_ref=AttributeRef("A", "v"))
        with pytest.raises(ValueError):
            WindowAggregateOperator("agg", AggregateFunction.SUM)


# --------------------------------------------------------------------------- binary join (REF)


class TestBinaryJoin:
    def _join(self, context, use_hash_index=False):
        pred = JoinPredicate.equi([(("A", "x"), ("B", "x"))])
        op = BinaryJoinOperator("J", {"A"}, {"B"}, pred, use_hash_index=use_hash_index)
        out = _attach(op, context)
        return op, out

    def test_opposite_port(self):
        assert opposite_port(PORT_LEFT) == PORT_RIGHT
        assert opposite_port(PORT_RIGHT) == PORT_LEFT
        with pytest.raises(KeyError):
            opposite_port("nope")

    def test_basic_join(self, context):
        op, out = self._join(context)
        context.clock.advance_to(1.0)
        op.process(make_tuple("A", 1.0, x=5), PORT_LEFT)
        context.clock.advance_to(2.0)
        op.process(make_tuple("B", 2.0, x=5), PORT_RIGHT)
        context.clock.advance_to(3.0)
        op.process(make_tuple("B", 3.0, seq=1, x=6), PORT_RIGHT)
        assert len(out) == 1
        assert out[0].sources == ("A", "B")
        assert out[0].ts == 2.0

    def test_hash_index_same_results(self, context):
        op, out = self._join(context, use_hash_index=True)
        context.clock.advance_to(1.0)
        op.process(make_tuple("A", 1.0, x=5), PORT_LEFT)
        context.clock.advance_to(2.0)
        op.process(make_tuple("B", 2.0, x=5), PORT_RIGHT)
        assert len(out) == 1

    def test_window_expiry_prevents_join(self, context):
        op, out = self._join(context)
        context.clock.advance_to(0.0)
        op.process(make_tuple("A", 0.0, x=5), PORT_LEFT)
        context.clock.advance_to(100.0)  # beyond the 60s window
        op.process(make_tuple("B", 100.0, x=5), PORT_RIGHT)
        assert out == []
        assert op.state_sizes == (0, 1)  # expired A tuple was purged

    def test_input_validation(self):
        pred = JoinPredicate.equi([(("A", "x"), ("B", "x"))])
        with pytest.raises(ValueError):
            BinaryJoinOperator("J", {"A"}, {"A"}, pred)
        with pytest.raises(ValueError):
            BinaryJoinOperator("J", set(), {"B"}, pred)

    def test_sources_of_ports(self, context):
        op, _ = self._join(context)
        assert op.input_sources(PORT_LEFT) == frozenset({"A"})
        assert op.output_sources() == frozenset({"A", "B"})
        with pytest.raises(KeyError):
            op.input_sources("middle")
