"""Just-in-time state indexes and the JIT paths they serve.

Three layers of evidence that serving MNS-detecting probes and suspension
extraction from ``OperatorState``'s index registry changes cost and nothing
else (docs/JIT.md, "Just-in-time state indexes"):

* unit tests of the registry: lazy build, maintenance, ordering, charging;
* a differential matrix — indexed JIT vs nested-loop JIT vs REF — with a
  ``slow`` hypothesis sweep behind it;
* a cost-shape regression on a workload where the nested loop used to make
  indexed JIT 4.6x the cost of indexed REF.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.core.config import DetectionMode, JITConfig
from repro.core.jit_join import JITJoinOperator
from repro.engine import ExecutionMode, run_workload
from repro.engine.results import result_multiset
from repro.metrics import CostKind
from repro.operators.state import OperatorState
from repro.plans.builder import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    PLAN_RIGHT_DEEP,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.scheduler import build_scheduler
from repro.streams.generators import generate_clique_workload
from repro.streams.time import Window

from helpers import make_tuple, script_gates

X = (("A", "x"),)
Y = (("A", "y"),)


def _hashes(context) -> int:
    return context.cost.count(CostKind.HASH)


def _brute(state, template, key):
    """What a lookup must return: the present entries with that key, in list order.

    A one-attribute template keys by the bare value, a longer one by the tuple.
    """
    if len(template) == 1:
        key = (key,)
    return [
        e for e in state.entries() if tuple(e.tuple.value(s, a) for s, a in template) == key
    ]


XY = (("A", "x"), ("A", "y"))

#: One step of the registry property: what it does to the state.
_STEP = st.one_of(
    # A fresh insert, ``lag`` seconds behind the clock (late when positive).
    st.tuples(st.just("insert"), st.integers(0, 2), st.integers(0, 1), st.sampled_from([0, 0, 3])),
    # Re-insert the ``i``-th extracted tuple under its original seq.
    st.tuples(st.just("reinsert"), st.integers(0, 50)),
    # Extract, through the index of one template, the entries of one key
    # whose y is ``y``.
    st.tuples(st.just("extract"), st.sampled_from([X, XY]), st.integers(0, 2), st.integers(0, 1)),
    # Advance the clock by ``dt`` and purge ``w`` behind it; dt > w retires
    # every lazily built index.
    st.tuples(st.just("purge"), st.integers(0, 12), st.integers(0, 6)),
    # Remove one present entry by identity.
    st.tuples(st.just("remove"), st.integers(0, 50)),
)


# ------------------------------------------------------------------ the registry


class TestIndexRegistry:
    def test_lazy_build_charges_one_hash_per_present_entry(self, context):
        state = OperatorState("S", context)
        for i in range(5):
            state.insert(make_tuple("A", float(i), seq=i, x=i % 2, y=i))
        state.purge(horizon=2.0)
        assert _hashes(context) == 0  # no index: nothing hashed so far
        state.probe_index([(X, 0)])
        assert _hashes(context) == 3 + 1  # build over the 3 present entries + the lookup
        state.probe_index([(X, 1)])
        assert _hashes(context) == 3 + 2  # built once
        state.insert(make_tuple("A", 9.0, seq=9, x=0, y=9))
        assert _hashes(context) == 3 + 2 + 1  # maintenance: one live index
        state.probe_index([(Y, 9)])
        assert _hashes(context) == 3 + 2 + 1 + 4 + 1  # second index: 4 present entries
        state.insert(make_tuple("A", 10.0, seq=10, x=1, y=10))
        assert _hashes(context) == 3 + 2 + 1 + 4 + 1 + 2  # two live indexes

    def test_registered_key_index_is_maintained_from_the_first_insert(self, context):
        state = OperatorState("S", context, key_template=X)
        state.insert(make_tuple("A", 0.0, seq=0, x=7))
        state.insert(make_tuple("A", 0.0, seq=1, x=8))
        assert _hashes(context) == 2
        matches = state.probe_index([(X, 7)])
        assert [e.tuple.get("x") for e in matches] == [7]
        assert _hashes(context) == 3  # the lookup only: nothing left to build
        assert context.cost.count(CostKind.PROBE_STEP) == 1

    def test_unused_lazy_index_retires_after_a_window_and_rebuilds_at_the_build_charge(
        self, context
    ):
        state = OperatorState("S", context, key_template=X)
        for i in range(4):
            state.insert(make_tuple("A", 100.0 + i, seq=i, x=i, y=i % 2))
        assert _hashes(context) == 4  # the join-key index only
        context.clock.advance_to(10.0)
        state.probe_index([(Y, 0)])
        assert _hashes(context) == 4 + 4 + 1  # build + lookup
        state.purge(horizon=10.0)  # purge passes ``now - w``: looked up exactly a window ago
        assert set(state._indexes) == {X, Y}
        state.insert(make_tuple("A", 104.0, seq=4, x=4, y=0))
        assert _hashes(context) == 9 + 2  # both maintained
        context.clock.advance_to(30.0)
        state.probe_index([(Y, 0)])
        assert _hashes(context) == 11 + 1  # a lookup renews the lease
        state.purge(horizon=29.0)
        assert set(state._indexes) == {X, Y}
        state.purge(horizon=30.5)  # not asked for during one window: retired
        assert set(state._indexes) == {X} and not state._last_lookup
        state.insert(make_tuple("A", 105.0, seq=5, x=5, y=0))
        assert _hashes(context) == 12 + 1  # no longer maintained
        context.clock.advance_to(500.0)
        state.purge(horizon=99.0)
        assert set(state._indexes) == {X}  # the join-key index never retires
        rebuilt = state.probe_index([(Y, 0)])
        assert _hashes(context) == 13 + 6 + 1  # rebuilt over the 6 present entries
        assert rebuilt == _brute(state, Y, 0) and len(rebuilt) == 4
        assert set(state._indexes) == {X, Y}

    def test_buckets_stay_correct_and_ordered_across_every_mutation(self, context):
        state = OperatorState("S", context)
        for i in range(100):
            state.insert(make_tuple("A", float(i), seq=i, x=i % 3, y=i % 2))

        def check():
            for key in range(3):
                assert state.probe_index([(X, key)]) == _brute(state, X, key)
            for key in range(2):
                assert state.probe_index([(Y, key)]) == _brute(state, Y, key)

        check()  # lazy build from the present entries
        state.insert(make_tuple("A", 100.0, seq=100, x=0, y=1))
        check()  # insert
        state.purge(horizon=10.0)
        check()  # purge
        extracted = state.extract(lambda t: t.get("y") == 0, lookup=(Y, 0))
        assert extracted and all(e.removed for e in extracted)
        assert state.probe_index([(Y, 0)]) == []
        assert len(state._entries) == len(state)  # removed entries dominated: compacted
        check()  # extract through one index maintains the other, across _maybe_compact
        replay = state.insert(extracted[0].tuple, seq=extracted[0].seq)
        assert replay.seq == extracted[0].seq < state.entries()[0].seq
        assert state.probe_index([(Y, 0)]) == [replay]
        assert state.probe_index([(X, replay.tuple.get("x"))])[-1] is replay
        check()  # re-insert under an original seq: last in its buckets, as in the list
        state.purge(horizon=95.0)
        state.insert(make_tuple("A", 110.0, seq=110, x=1, y=0))
        check()

    def test_union_visits_each_entry_once_in_insertion_order(self, context):
        state = OperatorState("S", context)
        rows = [(0, 0), (1, 5), (0, 5), (2, 2), (1, 0), (0, 5)]
        entries = [
            state.insert(make_tuple("A", float(i), seq=i, x=x, y=y))
            for i, (x, y) in enumerate(rows)
        ]
        # Re-insert the first entry under its original seq: it must sort last.
        state.remove_entry(entries[0])
        replay = state.insert(entries[0].tuple, seq=entries[0].seq)
        before = context.cost.count(CostKind.PROBE_STEP)
        union = state.probe_index([(X, 0), (Y, 5)])
        assert union == [entries[1], entries[2], entries[5], replay]
        assert context.cost.count(CostKind.PROBE_STEP) - before == 4
        assert [e.seq for e in union] == [2, 3, 6, 1]  # insertion order, not seq order

    def test_removed_entries_are_never_returned(self, context):
        state = OperatorState("S", context)
        entries = [state.insert(make_tuple("A", float(i), seq=i, x=1, y=i)) for i in range(4)]
        assert state.probe_index([(X, 1)]) == entries
        state.remove_entry(entries[1])
        state.purge(horizon=1.0)
        assert state.probe_index([(X, 1)]) == entries[2:]
        state.extract(lambda t: True, lookup=(X, 1))
        assert state.probe_index([(X, 1)]) == []
        assert state.probe_index([(X, 1), (Y, 2)]) == []

    def test_extract_through_an_index_examines_only_the_bucket(self, context):
        state = OperatorState("S", context)
        for i in range(20):
            state.insert(make_tuple("A", float(i), seq=i, x=i % 5, y=i % 2))
        removed = state.extract(lambda t: t.get("y") == 0, lookup=(X, 2))
        assert [e.tuple.seq for e in removed] == [2, 12]  # x == 2 and y == 0
        assert context.cost.count(CostKind.BLACKLIST_SCAN) == 4  # the x == 2 bucket
        state.extract(lambda t: False)
        assert context.cost.count(CostKind.BLACKLIST_SCAN) == 4 + 18  # the scan: every entry

    def test_any_live_charges_the_lookup_and_the_entry_that_answers(self, context):
        state = OperatorState("S", context)
        for i in range(6):
            state.insert(make_tuple("A", float(i), seq=i, x=i % 2, y=i))
        def steps():
            return context.cost.count(CostKind.PROBE_STEP)

        assert state.any_live(X, 0)  # three entries: one answers
        assert (_hashes(context), steps()) == (6 + 1, 1)  # build + lookup
        assert not state.any_live(X, 7)  # no bucket: the lookup alone
        assert (_hashes(context), steps()) == (8, 1)
        state.purge(horizon=4.5)  # entries 0-4 expire; the index retires
        assert state.any_live(X, 1) and not state.any_live(X, 0)
        assert (_hashes(context), steps()) == (8 + 1 + 2, 2)  # rebuilt over entry 5
        state.remove_entry(state.entries()[0])
        assert not state.any_live(X, 1)
        assert (_hashes(context), steps()) == (12, 2)

    def test_a_bucket_is_its_entry_until_a_second_one_joins_it(self, context):
        state = OperatorState("S", context, key_template=X)
        first = state.insert(make_tuple("A", 0.0, x=1))
        buckets = state._indexes[X][1]
        assert buckets == {1: first}  # the bare value keys the entry itself
        second = state.insert(make_tuple("A", 1.0, x=1))
        assert buckets[1] == [first, second]  # entry -> list
        state.remove_entry(first)
        assert buckets[1] is second  # list -> entry
        assert state.probe_index([(X, 1)]) == [second]
        state.remove_entry(second)
        assert buckets == {}
        assert state.probe_index([(X, 1)]) == [] and not state.any_live(X, 1)

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_STEP, max_size=40))
    def test_the_registry_always_answers_what_a_scan_of_present_entries_answers(
        self, steps
    ):
        context = ExecutionContext(window=Window(60.0))
        state = OperatorState("S", context, key_template=X)
        extracted, now, inserted = [], 0.0, 0

        def check():
            for _key_of, buckets in state._indexes.values():
                for bucket in buckets.values():  # an entry, or a list of two or more
                    assert type(bucket) is not list or len(bucket) >= 2
            lookups = [(Y, 0), (Y, 1)]
            for kx in range(3):
                lookups += [(X, kx), (XY, (kx, 0)), (XY, (kx, 1))]
            for template, key in lookups:
                want = _brute(state, template, key)
                assert state.probe_index([(template, key)]) == want
                assert state.any_live(template, key) == bool(want)
                before = context.cost.count(CostKind.BLACKLIST_SCAN)
                assert state.extract(lambda t: False, lookup=(template, key)) == []
                assert context.cost.count(CostKind.BLACKLIST_SCAN) - before == len(want)
            for kx in range(3):  # x == kx, or the next x with y == 0
                union = state.probe_index([(X, kx), (XY, ((kx + 1) % 3, 0))])
                assert union == [
                    e for e in state.entries()
                    if e.tuple.get("x") == kx
                    or (e.tuple.get("x"), e.tuple.get("y")) == ((kx + 1) % 3, 0)
                ]

        for step in steps:
            kind = step[0]
            if kind == "insert":
                _, x, y, lag = step
                inserted += 1
                state.insert(make_tuple("A", now - lag, seq=inserted, x=x, y=y))
            elif kind == "reinsert" and extracted:
                entry = extracted.pop(step[1] % len(extracted))
                assert state.insert(entry.tuple, seq=entry.seq).seq == entry.seq
            elif kind == "extract":
                _, template, kx, y = step
                key = kx if template is X else (kx, y)
                extracted += state.extract(lambda t: t.get("y") == y, lookup=(template, key))
            elif kind == "purge":
                _, dt, w = step
                now += dt
                context.clock.advance_to(now)
                state.purge(now - w)
            elif kind == "remove" and len(state):
                state.remove_entry(state.entries()[step[1] % len(state)])
            check()

    def test_indexes_are_not_charged_to_the_memory_model(self, context):
        state = OperatorState("S", context)
        tup = make_tuple("A", 0.0, x=1, y=2)
        state.insert(tup)
        state.probe_index([(X, 1), (Y, 2)])
        assert context.memory.current_bytes == tup.size_bytes

    def test_indexed_ref_counters_match_the_snapshot_before_the_registry(self):
        # A snapshot of an indexed REF run: a change to the state's index
        # registry must not move it by a single unit.
        workload = generate_clique_workload(
            n_sources=4, rate=0.5, window_seconds=20, dmax=2, duration=60, seed=0
        )
        query = ContinuousQuery.from_workload(workload)
        plan = build_xjoin_plan(
            query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF, use_hash_index=True
        )
        report = run_workload(plan, workload.events(), workload.window.length)
        assert report.result_count == 1826
        assert report.metrics.cpu_units == 29813.0
        counters = {k: v for k, v in report.metrics.counters.items() if v}
        assert counters == {
            "hash": 2828,
            "insert": 1414,
            "predicate_eval": 7822,
            "probe_step": 4223,
            "purge": 1074,
            "result_build": 3113,
        }


# ------------------------------------------------------------------ differential


DETECTORS = DetectionMode.ALL
SHAPES = (PLAN_LEFT_DEEP, PLAN_RIGHT_DEEP, PLAN_BUSHY)


def _jit_run(query, events, window, shape, config, mode, use_hash_index):
    plan = build_xjoin_plan(
        query, shape=shape, strategy=STRATEGY_JIT, jit_config=config,
        use_hash_index=use_hash_index,
    )
    # Pinned open: the two runs pay differently for the same decisions, so
    # live gates would rest at different times and the decisions diverge.
    script_gates(plan)
    kwargs = {}
    if mode == ExecutionMode.QUEUED:
        kwargs = dict(mode=mode, scheduler=build_scheduler("jit_aware"))
    report = run_workload(plan, events, window, **kwargs)
    stats = [
        dict(op.stats) for op in plan.join_operators if isinstance(op, JITJoinOperator)
    ]
    return report, stats


def _assert_indexed_equals_nested(workload, shape, config, mode) -> int:
    """Indexed JIT == nested-loop JIT == REF; returns the suspensions sent."""
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    window = workload.window.length
    ref = run_workload(
        build_xjoin_plan(query, shape=shape, strategy=STRATEGY_REF), events, window
    )
    nested, nested_stats = _jit_run(query, events, window, shape, config, mode, False)
    indexed, indexed_stats = _jit_run(query, events, window, shape, config, mode, True)
    expected = result_multiset(ref.results.results)
    assert result_multiset(nested.results.results) == expected
    assert result_multiset(indexed.results.results) == expected
    # The same results in the same order (hence the same timestamp sequence) ...
    assert indexed.results.results == nested.results.results
    # ... through the same JIT decisions, operator by operator: the same MNSs
    # detected, suspensions sent and received, tuples blacklisted and diverted.
    assert indexed_stats == nested_stats
    return sum(s["suspensions_sent"] for s in indexed_stats)


class TestIndexedJITDifferential:
    @pytest.mark.parametrize("mode", (ExecutionMode.SYNCHRONOUS, ExecutionMode.QUEUED))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("detection", DETECTORS)
    def test_matrix(self, detection, shape, mode):
        workload = generate_clique_workload(
            n_sources=4, rate=1.0, window_seconds=20, dmax=6, duration=50, seed=21
        )
        suspensions = 0
        for arity in (1, 2, 3):
            config = JITConfig(detection_mode=detection, max_mns_arity=arity)
            suspensions += _assert_indexed_equals_nested(workload, shape, config, mode)
        if detection == DetectionMode.LATTICE:
            assert suspensions > 0  # the comparison is not vacuous

    @pytest.mark.parametrize(
        "config, workload_params",
        (
            (
                JITConfig(max_mns_arity=3),
                dict(n_sources=5, rate=1.0, window_seconds=20, dmax=10),
            ),
            # Ø is detected only while a source's state is empty: sparser
            # streams, and results to compare.
            (JITConfig.doe(), dict(n_sources=4, rate=0.5, window_seconds=5, dmax=2)),
        ),
        ids=("lattice-arity3", "empty-only-cascade"),
    )
    def test_type2_and_cascaded_empty_suspension(self, config, workload_params):
        workload = generate_clique_workload(duration=50, seed=4, **workload_params)
        for shape in (PLAN_LEFT_DEEP, PLAN_BUSHY):
            assert (
                _assert_indexed_equals_nested(workload, shape, config, ExecutionMode.SYNCHRONOUS)
                > 0
            )


@pytest.mark.slow
class TestIndexedJITDifferentialSweep:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_sources=st.integers(min_value=3, max_value=5),
        rate=st.sampled_from((0.5, 1.0, 2.0)),
        window_seconds=st.sampled_from((10, 20, 36)),
        dmax=st.sampled_from((3, 5, 10, 40)),
        seed=st.integers(min_value=0, max_value=100_000),
        arity=st.integers(min_value=1, max_value=3),
        detection=st.sampled_from(DETECTORS),
        shape=st.sampled_from(SHAPES),
        mode=st.sampled_from((ExecutionMode.SYNCHRONOUS, ExecutionMode.QUEUED)),
    )
    def test_random_configurations(
        self, n_sources, rate, window_seconds, dmax, seed, arity, detection, shape, mode
    ):
        workload = generate_clique_workload(
            n_sources=n_sources, rate=rate, window_seconds=window_seconds, dmax=dmax,
            duration=50, seed=seed,
        )
        config = JITConfig(detection_mode=detection, max_mns_arity=arity)
        _assert_indexed_equals_nested(workload, shape, config, mode)


# ------------------------------------------------------------------ cost shape


class TestIndexedJITCostShape:
    #: ``probe_step`` / ``blacklist_scan`` of the JIT run below at the commit
    #: before the indexes served it (PR 12), where JIT cost 4.64x REF.
    PARENT_PROBE_STEPS = 3970
    PARENT_BLACKLIST_SCANS = 6170

    def test_indexed_jit_stays_within_twice_indexed_ref(self):
        workload = generate_clique_workload(
            n_sources=3, rate=1.0, window_seconds=30, dmax=400, duration=300, seed=5
        )
        query = ContinuousQuery.from_workload(workload)
        events = workload.events()
        reports = {}
        for strategy in (STRATEGY_REF, STRATEGY_JIT):
            plan = build_xjoin_plan(
                query, shape=PLAN_LEFT_DEEP, strategy=strategy, use_hash_index=True
            )
            reports[strategy] = run_workload(plan, events, workload.window.length)
        ref, jit = reports[STRATEGY_REF], reports[STRATEGY_JIT]
        assert result_multiset(jit.results.results) == result_multiset(ref.results.results)
        assert jit.metrics.cpu_units <= 2.0 * ref.metrics.cpu_units
        scanned = jit.metrics.counters["probe_step"] + jit.metrics.counters["blacklist_scan"]
        assert 5 * scanned <= self.PARENT_PROBE_STEPS + self.PARENT_BLACKLIST_SCANS
