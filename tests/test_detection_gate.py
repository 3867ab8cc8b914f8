"""Cost-gated MNS detection (docs/JIT.md, "When detection pays").

* the gate's rule in isolation: open, rest, trial, rests as long as the loss
  was deep or doubling, reset;
* the mechanism on an indexed clique, where detection cannot pay: the gate
  rests, JIT's cost falls towards REF's, its peak memory stays at or below
  the pinned-open run's, and the indexes nothing asks for any more leave the
  registry;
* the paper's left-deep plan, where it pays: with the gates pinned open the
  recorded counters (``golden.json``) are reproduced to the unit (the ledger
  charges nothing), and with live gates the top join — whose suspensions are
  the saving — never rests;
* every epoch of the live gates on both plans, as recorded in ``golden.json``;
* ``avoided_units`` against the counterfactual it estimates: the same input
  with the port pinned open and pinned shut;
* Section III under toggling: whatever schedule a gate follows, JIT's results
  are REF's, in timestamp order, and every JIT structure drains — and every
  replay of a resumed tuple produces what the full scan under the eager
  exception sets would, every pair test on the way giving those sets' answer.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DetectionMode, JITConfig
from repro.core.detection_gate import DetectionGate
from repro.engine import ExecutionMode, run_workload
from repro.plans.builder import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.scheduler import build_scheduler
from repro.streams.generators import generate_clique_workload

import golden
from golden import jit_operators as _jit_operators
from helpers import (
    ScriptedGate,
    audit_avoided,
    replays_checked_against_full_scan,
    script_gates,
)

W = 10.0  # window length used by the rule tests


# ------------------------------------------------------------------ the rule


class TestGateRule:
    def _epoch(self, gate, start, spent, avoided):
        """Book one epoch's sums, then consult the gate at the epoch's end."""
        gate.spend(spent)
        gate.avoid(avoided)
        return gate.open_at(start + W, W)

    def test_starts_open_and_stays_open_while_detection_pays(self):
        gate = DetectionGate()
        assert gate.open_at(0.0, W)
        assert self._epoch(gate, 0.0, spent=5.0, avoided=9.0)
        assert self._epoch(gate, W, spent=5.0, avoided=5.0)  # a tie is not a loss
        assert self._epoch(gate, 2 * W, spent=0.0, avoided=0.0)  # nor is an idle epoch
        assert not gate.resting
        assert (gate.spent_units, gate.avoided_units) == (10.0, 14.0)

    def test_epochs_are_judged_on_their_own_sums(self):
        gate = DetectionGate()
        gate.open_at(0.0, W)
        assert self._epoch(gate, 0.0, spent=1.0, avoided=100.0)
        # The surplus of the first epoch does not carry over.
        assert not self._epoch(gate, W, spent=2.0, avoided=1.0)

    def test_nothing_is_decided_inside_an_epoch(self):
        gate = DetectionGate()
        gate.open_at(0.0, W)
        gate.spend(50.0)
        assert gate.open_at(W - 0.5, W)
        assert not gate.open_at(W, W)

    def _rests(self, losses):
        """The rest, in windows, that each failed epoch of ``losses`` —
        (spent, avoided) pairs, each but the first a trial — starts."""
        gate = DetectionGate()
        gate.open_at(0.0, W)
        now, rests = 0.0, []
        for spent, avoided in losses:
            assert not self._epoch(gate, now, spent, avoided)  # fails: a rest begins
            now += W
            rest = 1
            while not gate.open_at(now + rest * W, W):  # until the trial epoch
                rest += 1
            rests.append(rest)
            now += rest * W
        return rests

    def test_rests_double_with_each_failed_trial_and_reset_on_success(self):
        # Each loss is narrow (S/A = 1.5): the doubling schedule alone.
        gate = DetectionGate()
        gate.open_at(0.0, W)
        now = 0.0
        for rest in (1, 2, 4, 8):
            assert not self._epoch(gate, now, spent=3.0, avoided=2.0)  # fails: rest begins
            now += W
            assert not gate.open_at(now + rest * W - 0.5, W)  # still resting
            assert gate.open_at(now + rest * W, W)  # the trial epoch
            now += rest * W
        assert self._epoch(gate, now, spent=1.0, avoided=2.0)  # the trial pays
        now += W
        assert not self._epoch(gate, now, spent=3.0, avoided=2.0)
        assert gate.open_at(now + 2 * W, W)  # back to a rest of one window

    def test_a_loss_by_a_factor_k_rests_k_windows_unless_doubling_rests_longer(self):
        # 50/10: five windows; 30/10 after a rest of 5: doubling (10) is longer;
        # 250/10 after 10: 25 windows, more than doubling's 20.
        assert self._rests([(50.0, 10.0), (30.0, 10.0), (250.0, 10.0)]) == [5, 10, 25]
        # Below a factor 2 the floor is 1: the doubling schedule alone.
        assert self._rests([(1.9, 1.0), (1.9, 1.0), (1.9, 1.0)]) == [1, 2, 4]
        # Nothing avoided leaves no factor to scale by: doubling.
        assert self._rests([(5.0, 0.0), (5.0, 0.0), (500.0, 0.0)]) == [1, 2, 4]

    def test_what_is_booked_during_a_rest_does_not_count_against_the_trial(self):
        gate = DetectionGate()
        gate.open_at(0.0, W)
        assert not self._epoch(gate, 0.0, spent=3.0, avoided=1.0)  # rests 3 windows
        gate.spend(100.0)  # the drain of what was suspended
        assert not gate.open_at(4 * W - 0.5, W)
        assert gate.open_at(4 * W, W)
        assert self._epoch(gate, 4 * W, spent=1.0, avoided=2.0)


# ------------------------------------------------------------------ where it cannot pay


class TestGateOnIndexedClique:
    """Three sources, 30-tuple windows, hash indexes: all REF has left to save
    is the intermediate results themselves, and there are next to none."""

    def _run(self, windows, strategy=STRATEGY_JIT, gates=None):
        return golden.run_setup(golden.indexed_clique_setup(windows, strategy), gates)

    def test_gate_rests_within_two_windows(self):
        _report, plan = self._run(2)
        consumer = _jit_operators(plan)[-1]
        gate = consumer.gates["left"]
        assert gate.resting
        assert consumer.stats["detection_rests"] == 1
        assert 0 <= gate.avoided_units < gate.spent_units

    def test_cost_falls_towards_ref_and_retired_indexes_leave_the_registry(self):
        ref, _ = self._run(16, STRATEGY_REF)
        pinned, _ = self._run(16, gates=ScriptedGate)
        jit, plan = self._run(16)
        assert jit.results.multiset() == ref.results.multiset()
        assert jit.results.temporally_ordered
        # The first epoch loses by a factor of 53 (golden.json's
        # "indexed-clique-16"): the gate rests 53 windows, past the end, and
        # detection ran in one window of sixteen, with one tail to drain.
        consumer = _jit_operators(plan)[-1]
        assert (consumer.stats["detection_rests"], consumer.stats["detection_trials"]) == (1, 0)
        assert pinned.cpu_units > 1.55 * ref.cpu_units
        assert jit.cpu_units <= 1.08 * ref.cpu_units  # 1.069
        # The rest began more than a window ago: every index that was built
        # for detection or extraction has retired, the join key stays.
        for operator in plan.join_operators:
            for state in operator.states.values():
                assert not state._last_lookup
                assert len(state._indexes) == 1

    def test_the_longer_it_runs_the_less_the_trials_weigh(self):
        ref, _ = self._run(64, STRATEGY_REF)
        jit, plan = self._run(64)
        assert jit.results.multiset() == ref.results.multiset()
        consumer = _jit_operators(plan)[-1]
        assert consumer.stats["detection_trials"] == 1  # after the rest of 53
        assert jit.cpu_units <= 1.04 * ref.cpu_units  # 1.031

    def test_a_resting_gate_holds_no_more_than_one_pinned_open(self):
        # Memory is not in the rule (docs/JIT.md, "Memory under a resting
        # gate"): resting only drains what detection holds, so it can only
        # lower the peak.
        pinned, _ = self._run(16, gates=ScriptedGate)
        jit, _ = self._run(16)
        assert jit.metrics.peak_memory_bytes <= pinned.metrics.peak_memory_bytes


# ------------------------------------------------------------------ where it pays


class TestGateOnThePaperPlan:
    """``golden.json``'s ``paper`` records: the Table III left-deep default under
    JIT with every gate pinned open (``tests/golden.py`` says how they are
    recorded and what a change is allowed to move)."""

    @pytest.mark.parametrize("scale", golden.PAPER_SCALES)
    def test_pinned_open_reproduces_the_counters_before_the_gate(self, scale):
        assert golden.paper_record(scale) == golden.load()["paper"][str(scale)]

    @pytest.mark.parametrize("scale", golden.PAPER_SCALES)
    def test_the_gate_stays_open_where_jit_pays(self, scale):
        pinned_units = golden.load()["paper"][str(scale)]["cpu_units"]
        report, plan = golden.paper_run(scale)
        top = _jit_operators(plan)[-1]
        gate = top.gates["left"]
        assert top.name == "Op3" and top.stats["mns_detected"] > 0
        assert top.stats["detection_rests"] == 0 and not gate.resting
        assert gate.avoided_units > 2 * gate.spent_units
        # A gate below may rest (Op2's does once its blacklist upkeep outgrows
        # what it saves); it may only make the run cheaper.
        assert report.metrics.cpu_units <= pinned_units


class TestLiveGateRecords:
    """``golden.json``'s ``gates`` records: every epoch of every live gate."""

    @pytest.mark.parametrize("name", golden.GATE_RUNS)
    def test_every_epoch_is_reproduced(self, name):
        assert golden.gate_record(name) == golden.load()["gates"][name]


# ------------------------------------------------------------------ what avoided_units claims


class TestAvoidedAudit:
    """``helpers.audit_avoided``: the port pinned open against the port pinned
    shut, every other gate pinned open.  docs/JIT.md, "The audit", records the
    per-window ratios."""

    @staticmethod
    def _sums(name, gate):
        windows = audit_avoided(golden.GATE_RUNS[name], gate)
        return {
            key: sum(getattr(window, key) for window in windows)
            for key in ("spent", "avoided", "actual", "open_units", "shut_units")
        }

    @pytest.mark.parametrize(
        "name, gate, low, high",
        [
            # The top join's estimate is conservative: 0.403 and 0.406 of actual.
            ("paper-0.3-seed7", "Op3.left", 0.25, 1.0),
            ("paper-0.3-seed11", "Op3.left", 0.25, 1.0),
            # The marginal join's is generous: 1.085 and 1.028, with the
            # probes its lookups skipped booked (0.941 and 0.825 without).
            ("paper-0.3-seed7", "Op2.left", 1.0, 2.0),
            ("paper-0.3-seed11", "Op2.left", 1.0, 2.0),
        ],
    )
    def test_where_detection_pays_the_estimate_is_within_its_band(self, name, gate, low, high):
        sums = self._sums(name, gate)
        assert low * sums["actual"] < sums["avoided"] < high * sums["actual"]
        # Both books say detecting paid over the run.
        assert sums["avoided"] > sums["spent"]
        assert sums["shut_units"] > sums["open_units"]

    def test_where_it_cannot_pay_both_books_say_so(self):
        sums = self._sums("indexed-clique-16", "Op2.left")
        assert sums["avoided"] < 0.05 * sums["spent"]
        # The run pinned shut is cheaper by more than the gate booked as lost:
        # what detection costs and the ledger does not meter (docs/JIT.md).
        assert sums["open_units"] - sums["shut_units"] > sums["spent"] - sums["avoided"]


# ------------------------------------------------------------------ Section III under toggling


def _drained(plan, context, window) -> bool:
    """Advance past every retention horizon and purge: nothing may be left."""
    context.clock.advance_to(context.now + 10 * window)
    operators = _jit_operators(plan)
    for _ in operators:  # a cancellation reaches one level further up per pass
        for operator in reversed(operators):
            operator._last_jit_purge = float("-inf")
            operator._maybe_purge_jit_structures(context.now)
    return all(
        not len(op.blacklists[port]) and not len(op.mns_buffers[port])
        for op in operators
        for port in op.ports
    )


def _assert_toggling_preserves_results(
    n_sources, shape, mode, use_hash_index, schedules, slot_windows, seed, dmax=4, config=None
):
    workload = generate_clique_workload(
        n_sources=n_sources, rate=1.0, window_seconds=20, dmax=dmax, duration=90, seed=seed
    )
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    window = workload.window.length
    ref = run_workload(
        build_xjoin_plan(query, shape=shape, strategy=STRATEGY_REF, use_hash_index=use_hash_index),
        events, window,
    )
    plan = build_xjoin_plan(
        query, shape=shape, strategy=STRATEGY_JIT, use_hash_index=use_hash_index,
        jit_config=config,
    )
    if schedules is not None:  # None keeps the shipped, ledger-driven gates
        scripts = iter(schedules * 8)
        script_gates(plan, lambda: ScriptedGate(next(scripts), slot_windows))
    kwargs = {}
    if mode == ExecutionMode.QUEUED:
        kwargs = dict(mode=mode, scheduler=build_scheduler("jit_aware"))
    with replays_checked_against_full_scan():
        jit = run_workload(plan, events, window, **kwargs)
    assert jit.results.multiset() == ref.results.multiset()
    assert jit.results.temporally_ordered
    assert _drained(plan, plan.root.require_context(), window)
    return tuple(
        sum(op.stats[key] for op in _jit_operators(plan))
        for key in ("detection_rests", "detection_trials")
    )


#: Gate scripts: one tuple of open/rest slots per gate, handed out in turn.
FLIPPING = ((True, False), (False, True, True), (True, True, False, False))


class TestToggleProperty:
    @pytest.mark.parametrize("use_hash_index", (False, True), ids=("nested", "indexed"))
    @pytest.mark.parametrize("mode", (ExecutionMode.SYNCHRONOUS, ExecutionMode.QUEUED))
    @pytest.mark.parametrize("shape", (PLAN_LEFT_DEEP, PLAN_BUSHY))
    @pytest.mark.parametrize("n_sources", (2, 3, 4))
    def test_scripted_schedules(self, n_sources, shape, mode, use_hash_index):
        rests, _trials = _assert_toggling_preserves_results(
            n_sources, shape, mode, use_hash_index, FLIPPING, slot_windows=0.4, seed=17
        )
        if n_sources > 2:
            assert rests > 0  # the schedule did toggle a detecting port

    @pytest.mark.parametrize("use_hash_index", (False, True), ids=("nested", "indexed"))
    def test_the_shipped_rule_rests_and_retries(self, use_hash_index):
        # No script: in 4.5 windows Op3's gate loses over 70-fold and rests
        # past the end, while Op2's saves nothing in its second epoch, so it
        # rests the doubled one window and tries again.
        rests, trials = _assert_toggling_preserves_results(
            4, PLAN_LEFT_DEEP, ExecutionMode.SYNCHRONOUS, use_hash_index,
            schedules=None, slot_windows=1.0, seed=17,
        )
        assert rests > 0 and trials > 0


@pytest.mark.slow
class TestTogglePropertySweep:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_sources=st.integers(min_value=2, max_value=4),
        shape=st.sampled_from((PLAN_LEFT_DEEP, PLAN_BUSHY)),
        mode=st.sampled_from((ExecutionMode.SYNCHRONOUS, ExecutionMode.QUEUED)),
        use_hash_index=st.booleans(),
        schedules=st.lists(
            st.lists(st.booleans(), min_size=1, max_size=8).map(tuple),
            min_size=1, max_size=4,
        ).map(tuple),
        slot_windows=st.sampled_from((0.1, 0.3, 0.5, 1.0, 1.5)),
        seed=st.integers(min_value=0, max_value=100_000),
        dmax=st.sampled_from((2, 4, 8, 40)),
        config=st.builds(
            JITConfig,
            detection_mode=st.sampled_from((DetectionMode.LATTICE, DetectionMode.EMPTY_ONLY)),
            max_mns_arity=st.integers(min_value=1, max_value=3),
        ),
    )
    def test_arbitrary_schedules(
        self, n_sources, shape, mode, use_hash_index, schedules, slot_windows, seed, dmax,
        config,
    ):
        _assert_toggling_preserves_results(
            n_sources, shape, mode, use_hash_index, schedules, slot_windows, seed, dmax,
            config,
        )
