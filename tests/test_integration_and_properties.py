"""Integration tests and property-based tests.

The central correctness property of the reproduction: JIT (under any
configuration), DOE and REF executions of the same workload produce exactly
the query's result set, pushed synchronously or queued on a one-query
shard, and on every plan shape.  Every strategy, setting and shape is
compared with the specification itself (``helpers.specification_results``),
so shape is an equivalence axis.
Hypothesis drives randomized workloads and configurations against those
invariants, plus invariants of the lower-level data structures.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.core.cns_lattice import CNSLattice
from repro.core.config import DetectionMode, JITConfig, RetentionPolicy
from repro.engine import run_workload
from repro.engine.results import result_multiset
from repro.experiments import (
    BUSHY_DEFAULTS,
    LEFT_DEEP_DEFAULTS,
    compare_strategies,
    figure10,
    format_figure,
    scaled_workload,
    sweep_parameter,
)
from repro.operators.predicates import AttributeCompare, AttributeRef, SelectionPredicate
from repro.operators.state import OperatorState
from repro.plans.builder import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    PLAN_RIGHT_DEEP,
    STRATEGY_DOE,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.streams.generators import generate_clique_workload
from repro.streams.sources import PeriodicArrivals, merge_sources
from repro.streams.time import Window
from repro.streams.tuples import AtomicTuple

from helpers import run_queued, script_gates, specification_results


def _run_all(workload, shape, strategies, jit_config=None):
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    out = {}
    for strategy in strategies:
        plan = build_xjoin_plan(query, shape=shape, strategy=strategy, jit_config=jit_config)
        report = run_workload(plan, events, window_length=workload.window.length)
        out[strategy] = report
    return out


# --------------------------------------------------------------------------- integration


class TestStrategyEquivalence:
    @pytest.mark.parametrize("shape", [PLAN_LEFT_DEEP, PLAN_BUSHY, PLAN_RIGHT_DEEP])
    @pytest.mark.parametrize("n_sources", [3, 4])
    def test_jit_and_doe_match_ref(self, shape, n_sources):
        workload = generate_clique_workload(
            n_sources=n_sources, rate=1.0, window_seconds=50, dmax=7, duration=120, seed=5
        )
        reports = _run_all(workload, shape, (STRATEGY_REF, STRATEGY_JIT, STRATEGY_DOE))
        ref = result_multiset(reports[STRATEGY_REF].results.results)
        assert result_multiset(reports[STRATEGY_JIT].results.results) == ref
        assert result_multiset(reports[STRATEGY_DOE].results.results) == ref
        assert reports[STRATEGY_REF].result_count > 0

    def test_jit_saves_cpu_on_selective_workload(self):
        # A selective top join over a 3-way left-deep plan (the Figure 16
        # N=3 setting at reduced scale) is a regime where JIT's savings
        # clearly exceed its detection overhead.
        workload = generate_clique_workload(
            n_sources=3,
            rate=1.0,
            window_seconds=36,
            dmax=50,
            duration=110,
            seed=9,
            value_range_overrides={"C": 5000},
        )
        reports = _run_all(
            workload,
            PLAN_LEFT_DEEP,
            (STRATEGY_REF, STRATEGY_JIT),
            jit_config=JITConfig(retention_policy=RetentionPolicy.WINDOW),
        )
        assert (
            reports[STRATEGY_JIT].cpu_units < reports[STRATEGY_REF].cpu_units
        ), "JIT should need fewer modelled CPU units than REF on a selective workload"

    def test_wider_mns_detection_is_correct(self):
        workload = generate_clique_workload(
            n_sources=3, rate=1.0, window_seconds=50, dmax=6, duration=120, seed=3
        )
        reports = _run_all(
            workload,
            PLAN_LEFT_DEEP,
            (STRATEGY_REF, STRATEGY_JIT),
            jit_config=JITConfig(max_mns_arity=2),
        )
        assert result_multiset(reports[STRATEGY_JIT].results.results) == result_multiset(
            reports[STRATEGY_REF].results.results
        )

    @pytest.mark.parametrize("queued", (False, True), ids=("synchronous", "queued"))
    @pytest.mark.parametrize("shape", [PLAN_LEFT_DEEP, PLAN_BUSHY, PLAN_RIGHT_DEEP])
    def test_two_stacked_selections_match_ref(self, shape, queued):
        # Sel2 reads Sel1, which does not control production: only Sel1's
        # permanent suspensions reach the root join.
        workload = generate_clique_workload(
            n_sources=3, rate=1.0, window_seconds=50, dmax=7, duration=120, seed=5
        )
        query = dataclasses.replace(
            ContinuousQuery.from_workload(workload),
            selections=(
                SelectionPredicate((AttributeCompare(AttributeRef("A", "x2"), ">", 3),)),
                SelectionPredicate((AttributeCompare(AttributeRef("B", "x3"), "<", 5),)),
            ),
        )
        events = workload.events()
        results = {}
        for strategy in (STRATEGY_REF, STRATEGY_JIT, STRATEGY_DOE):
            if queued:
                hosted = []
                report = run_queued(
                    query, events, shape=shape, strategy=strategy, prepare=hosted.append
                )
                (plan,) = hosted
            else:
                plan = build_xjoin_plan(query, shape=shape, strategy=strategy)
                report = run_workload(plan, events, workload.window.length)
            results[strategy] = result_multiset(report.results.results)
            assert plan.operator_named("Sel2").rejected > 0
            if strategy != STRATEGY_REF:
                assert plan.operator_named("Op2").stats["suspensions_received"] > 0
        assert sum(results[STRATEGY_REF].values()) > 0
        assert results[STRATEGY_JIT] == results[STRATEGY_REF]
        assert results[STRATEGY_DOE] == results[STRATEGY_REF]

    def test_experiment_harness_runs_figure_end_to_end(self):
        result = figure10(scale=0.02, values=(10, 20))
        assert len(result.points) == 2
        assert all(s > 0 for s in result.speedups())
        text = format_figure(result)
        assert "Figure 10" in text and "speedup" in text

    def test_sweep_smoke(self):
        points = sweep_parameter(
            LEFT_DEEP_DEFAULTS, "dmax", (30, 50), shape=PLAN_LEFT_DEEP, scale=0.03
        )
        assert len(points) == 2 and all(p.runs[STRATEGY_REF].events > 0 for p in points)

    def test_compare_strategies_checks_equivalence(self):
        workload = generate_clique_workload(
            n_sources=4, rate=0.5, window_seconds=40, dmax=6, duration=100, seed=6
        )
        strategies = (STRATEGY_REF, STRATEGY_JIT, STRATEGY_DOE)
        runs = compare_strategies(
            workload, PLAN_BUSHY, strategies=strategies, check_equivalence=True
        )
        assert tuple(runs) == strategies
        counts = {run.result_count for run in runs.values()}
        assert len(counts) == 1 and counts.pop() > 0
        assert runs[STRATEGY_JIT].cpu_units < runs[STRATEGY_REF].cpu_units

    def test_scaled_workload_respects_boost(self):
        workload = scaled_workload(LEFT_DEEP_DEFAULTS, scale=0.05)
        assert workload.max_value("D") == 100 * LEFT_DEEP_DEFAULTS.dmax
        bushy = scaled_workload(BUSHY_DEFAULTS, scale=0.05)
        assert bushy.max_value("F") == BUSHY_DEFAULTS.dmax


# --------------------------------------------------------------------------- property-based


@st.composite
def workload_parameters(draw):
    """Random small clique workloads that still finish quickly."""
    return dict(
        n_sources=draw(st.integers(min_value=2, max_value=4)),
        rate=draw(st.sampled_from([0.5, 1.0, 2.0])),
        window_seconds=draw(st.sampled_from([20, 40, 80])),
        dmax=draw(st.integers(min_value=2, max_value=10)),
        duration=draw(st.sampled_from([60, 100])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


@st.composite
def bounded_workload_parameters(draw):
    """``workload_parameters`` without the corners where REF alone runs for
    minutes: at most 40 tuples per source window (rate x window), and dmax
    at least 4 at four sources.  Every draw's REF + JIT pair finishes in
    under ~8 s on a 2-core x86 box."""
    n_sources = draw(st.integers(min_value=2, max_value=4))
    rate = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return dict(
        n_sources=n_sources,
        rate=rate,
        window_seconds=draw(st.sampled_from([w for w in (20, 40, 80) if rate * w <= 40])),
        dmax=draw(st.integers(min_value=4 if n_sources == 4 else 2, max_value=10)),
        duration=draw(st.sampled_from([60, 100])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


def _assert_engines_equal_the_specification(params, pinned_open, period=None):
    """REF, JIT and DOE, synchronous and queued, on every plan shape, all emit
    exactly the specification's results on ``params``' clique; JIT's and
    DOE's gates are pinned open (the paper's behaviour) if ``pinned_open``.

    With a ``period`` every source arrives every ``period`` seconds from 0
    instead of at random: tuples then meet exactly one window apart whenever
    the period divides the window, which is where the window is inclusive.
    """
    workload = generate_clique_workload(**params)
    query = ContinuousQuery.from_workload(workload)
    if period is None:
        events = workload.events()
    else:
        sources = workload.sources()
        for source in sources:
            source.arrivals = PeriodicArrivals(period)
        events = merge_sources(sources, workload.duration)
    expected = specification_results(query, events)
    for shape in SHAPES:
        for strategy in (STRATEGY_REF, STRATEGY_JIT, STRATEGY_DOE):
            prepare = script_gates if pinned_open else None
            plan = build_xjoin_plan(query, shape=shape, strategy=strategy)
            if pinned_open:
                script_gates(plan)
            for setting, report in (
                ("synchronous", run_workload(plan, events, workload.window.length)),
                ("queued", run_queued(query, events, shape, strategy, prepare=prepare)),
            ):
                got = result_multiset(report.results.results)
                assert got == expected, (shape, strategy, setting, sum(got.values()))
    return expected, query, events


SHAPES = (PLAN_LEFT_DEEP, PLAN_RIGHT_DEEP, PLAN_BUSHY)


@st.composite
def two_source_parameters(draw):
    """Random 2-source cliques, from empty to a few thousand results."""
    return dict(
        n_sources=2,
        rate=draw(st.sampled_from([0.5, 1.0, 2.0])),
        window_seconds=draw(st.sampled_from([0.5, 5, 20, 30, 80])),
        dmax=draw(st.integers(min_value=1, max_value=10)),
        duration=draw(st.sampled_from([30, 60, 120])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


@st.composite
def clique_parameters(draw):
    """Random 2-5-source cliques in small windows, at most ten tuples per
    source window and every dmax a clique of that size can afford (1 only
    for two sources, whose every pair joins)."""
    n_sources = draw(st.integers(min_value=2, max_value=5))
    rate = draw(st.sampled_from([0.5, 1.0]))
    return dict(
        n_sources=n_sources,
        rate=rate,
        window_seconds=draw(st.sampled_from([2, 5, 10])),
        dmax=draw(st.integers(min_value=1 if n_sources == 2 else 2, max_value=10)),
        duration=draw(st.sampled_from([30, 60])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


#: Random arrivals (None), or every source every 0.5 / 1 / 2 seconds: each
#: divides most of the drawn windows.
_PERIODS = st.sampled_from([None, None, 0.5, 1.0, 2.0])


class TestSpecification:
    """2-5 sources: the answer is the query's, on every plan shape."""

    @pytest.mark.parametrize(
        "n_sources, window, dmax, seed, count",
        [
            # The ``differential`` cliques of tests/golden.py ...
            (2, 30, 8, 1, 728),
            (2, 30, 8, 2, 767),
            (3, 30, 8, 1, 577),
            (3, 30, 8, 2, 580),
            (4, 30, 8, 1, 26),
            # ... and a five-way one in a short window.
            (5, 10, 3, 1, 115),
        ],
    )
    def test_differential_cliques_equal_the_specification(
        self, n_sources, window, dmax, seed, count
    ):
        params = dict(
            n_sources=n_sources, rate=1.0, window_seconds=window, dmax=dmax, duration=120,
            seed=seed,
        )
        expected, _query, _events = _assert_engines_equal_the_specification(params, True)
        assert sum(expected.values()) == count

    @pytest.mark.parametrize("n_sources, window", [(2, 5), (4, 4)])
    def test_pairs_exactly_one_window_apart_join(self, n_sources, window):
        # Every source arrives every second, so a result's oldest and newest
        # components often sit exactly one window apart.
        params = dict(
            n_sources=n_sources, rate=1.0, window_seconds=window, dmax=3, duration=40, seed=4
        )
        expected, query, events = _assert_engines_equal_the_specification(
            params, True, period=1.0
        )
        # Stamps are whole seconds: a window 1 ms shorter is a strict one.
        strict = specification_results(
            dataclasses.replace(query, window=Window(window - 0.001)), events
        )
        assert sum(strict.values()) < sum(expected.values())

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(params=two_source_parameters(), pinned_open=st.booleans(), period=_PERIODS)
    def test_two_source_cliques_equal_the_specification(self, params, pinned_open, period):
        _assert_engines_equal_the_specification(params, pinned_open, period)

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(params=clique_parameters(), pinned_open=st.booleans(), period=_PERIODS)
    def test_cliques_equal_the_specification(self, params, pinned_open, period):
        _assert_engines_equal_the_specification(params, pinned_open, period)


@pytest.mark.slow
class TestSpecificationSweep:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(params=two_source_parameters(), pinned_open=st.booleans(), period=_PERIODS)
    def test_two_source_cliques_equal_the_specification(self, params, pinned_open, period):
        _assert_engines_equal_the_specification(params, pinned_open, period)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(params=clique_parameters(), pinned_open=st.booleans(), period=_PERIODS)
    def test_cliques_equal_the_specification(self, params, pinned_open, period):
        _assert_engines_equal_the_specification(params, pinned_open, period)


@pytest.mark.slow
class TestPropertyEquivalence:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_parameters(), shape=st.sampled_from([PLAN_LEFT_DEEP, PLAN_BUSHY]))
    def test_jit_always_matches_ref(self, params, shape):
        workload = generate_clique_workload(**params)
        reports = _run_all(workload, shape, (STRATEGY_REF, STRATEGY_JIT))
        assert result_multiset(reports[STRATEGY_JIT].results.results) == result_multiset(
            reports[STRATEGY_REF].results.results
        )

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        params=bounded_workload_parameters(),
        detection=st.sampled_from([DetectionMode.LATTICE, DetectionMode.EMPTY_ONLY]),
        arity=st.integers(min_value=1, max_value=3),
    )
    def test_any_jit_configuration_matches_ref(self, params, detection, arity):
        workload = generate_clique_workload(**params)
        config = JITConfig(detection_mode=detection, max_mns_arity=arity)
        reports = _run_all(workload, PLAN_LEFT_DEEP, (STRATEGY_REF, STRATEGY_JIT), jit_config=config)
        assert result_multiset(reports[STRATEGY_JIT].results.results) == result_multiset(
            reports[STRATEGY_REF].results.results
        )

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_parameters())
    def test_results_are_temporally_ordered(self, params):
        workload = generate_clique_workload(**params)
        query = ContinuousQuery.from_workload(workload)
        plan = build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT)
        report = run_workload(plan, workload.events(), workload.window.length)
        assert report.results.temporally_ordered


class TestNothingRetained:
    """Under JIT and DOE, with suspended work outstanding, no purge of any
    join leaves an entry below its horizon, and the results are still the
    specification's: a replay yields only results that contain the arrival
    resuming it, so nothing past that arrival's horizon can join one
    (docs/JIT.md, "Why nothing past the horizon can join a replay")."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_no_entry_outlives_its_horizon(self, shape):
        outstanding = 0  # purges made while some join held suspended tuples
        for params in (
            dict(n_sources=3, rate=1.0, window_seconds=30, dmax=8, duration=120, seed=1),
            dict(n_sources=4, rate=1.0, window_seconds=10, dmax=3, duration=120, seed=1),
        ):
            workload = generate_clique_workload(**params)
            query = ContinuousQuery.from_workload(workload)
            events = workload.events()
            expected = specification_results(query, events)
            for strategy in (STRATEGY_JIT, STRATEGY_DOE):
                def prepare(plan):
                    script_gates(plan)
                    joins = plan.join_operators

                    def purge_and_check(now, op, purge):
                        nonlocal outstanding
                        purge(now)
                        horizon = op.require_context().window.purge_horizon(now)
                        for state in op.states.values():
                            assert all(e.ts >= horizon for e in state.entries()), op.name
                        outstanding += any(
                            blacklist.suspended_count
                            for join in joins
                            for blacklist in join.blacklists.values()
                        )

                    for op in joins:
                        op.purge = partial(purge_and_check, op=op, purge=op.purge)

                plan = build_xjoin_plan(query, shape=shape, strategy=strategy)
                prepare(plan)
                for setting, report in (
                    ("synchronous", run_workload(plan, events, workload.window.length)),
                    ("queued", run_queued(query, events, shape, strategy, prepare=prepare)),
                ):
                    got = result_multiset(report.results.results)
                    assert got == expected, (strategy, setting, sum(got.values()))
        assert outstanding


class TestPropertyDataStructures:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(("insert", "remove", "purge")), st.integers(0, 5)),
            min_size=1,
            max_size=60,
        )
    )
    def test_any_live_agrees_with_a_scan(self, steps):
        context = ExecutionContext(window=Window(30.0))
        state = OperatorState("S", context)
        template = (("A", "x"),)
        purged_to = float("-inf")  # purge horizons only grow
        for i, (action, value) in enumerate(steps):
            if action == "insert":
                state.insert(AtomicTuple("A", float(i), {"x": value}, seq=i))
            elif action == "remove":
                doomed = [e for e in state.entries() if e.tuple.get("x") == value]
                if doomed:
                    state.remove_entry(doomed[0])
            else:
                purged_to = max(purged_to, float(i - 4 * value))
                state.purge(purged_to)
            for key in range(6):
                expected = any(e.tuple.get("x") == key for e in state.entries())
                assert state.any_live(template, key) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100), st.integers(0, 5)),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0, max_value=120),
    )
    def test_state_purge_invariant(self, arrivals, horizon):
        context = ExecutionContext(window=Window(30.0))
        state = OperatorState("S", context)
        arrivals = sorted(arrivals, key=lambda a: a[0])
        for i, (ts, value) in enumerate(arrivals):
            state.insert(AtomicTuple("A", ts, {"x": value}, seq=i))
        state.purge(horizon)
        remaining = [e.ts for e in state.probe()]
        assert all(ts >= horizon for ts in remaining)
        assert context.memory.current_bytes == sum(e.tuple.size_bytes for e in state.entries())

    @settings(max_examples=40, deadline=None)
    @given(
        components=st.integers(min_value=1, max_value=4),
        rows=st.lists(
            st.lists(st.booleans(), min_size=4, max_size=4), min_size=0, max_size=6
        ),
    )
    def test_lattice_mns_are_minimal_and_unmatched(self, components, rows):
        names = [f"s{i}" for i in range(components)]
        lattice = CNSLattice(names)
        lattice.reset()
        observations = [dict(zip(names, row[:components])) for row in rows]
        for row in observations:
            lattice.observe(row)
        survivors = lattice.surviving_mns()
        for mns in survivors:
            # (1) An MNS never matched any observed tuple (a node matches iff
            #     all of its components match).
            for row in observations:
                assert not all(row[name] for name in mns)
            # (2) Minimality: no strict subset is also reported.
            for other in survivors:
                assert not (other < mns)
