"""The blacklist answers without scanning itself (docs/JIT.md, "Watermark exceptions").

* a state machine plays both sides of one join — arrivals, suspensions under
  every watermark the operator hands out (default, ``-1`` with ``met_seqs``,
  the in-flight probe's ``own_seq`` and ``own_seq - 1``), diverted arrivals,
  resumptions that re-seat tuples under their original sequence number,
  purges — and after every step asks both blacklists about every sequence
  number in sight: the answer must be the scan's
  (:func:`helpers.scan_unmet_exceptions`), for no more tuples examined, and
  every maintained bound and count must equal its recomputation from scratch;
* the cost shape: a query examines the seats suspended before ``own_seq``
  and one more, a purge the tuples it drops and one more;
* the paper's left-deep plan: every ``unmet_exceptions_for`` call of a whole
  run agrees with the scan, and every resumed tuple's replay — which starts
  behind the order stamp its suspension recorded — produces what the full
  scan under the sequence watermark produces
  (:func:`helpers.replays_checked_against_full_scan`; the toggle matrix of
  ``test_detection_gate.py`` runs under the same two checks).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.context import ExecutionContext
from repro.core.blacklist import Blacklist
from repro.core.config import JITConfig, RetentionPolicy
from repro.core.detection_gate import DetectionGate
from repro.core.jit_join import JITJoinOperator
from repro.core.signature import MNSSignature
from repro.engine import ExecutionEngine, run_workload
from repro.experiments.config import LEFT_DEEP_DEFAULTS, scaled_workload
from repro.metrics import CostKind
from repro.operators.base import PORT_LEFT
from repro.plans.builder import (
    PLAN_LEFT_DEEP,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.streams.generators import generate_clique_workload
from repro.streams.time import Window

from helpers import (
    blacklists_checked_against_scan,
    checked_unmet_exceptions,
    make_tuple,
    replays_checked_against_full_scan,
    script_gates,
)

WINDOW = 20.0
RETENTION = 30.0  # longer than the window, so a purge keeps tuples REF has dropped


def _signature(y, ts=0.0):
    return MNSSignature.from_components(make_tuple("A", ts, y=y), ("A",), [("A", "y")])


def _assert_bookkeeping_matches_a_recount(blacklist: Blacklist) -> None:
    """Everything the blacklist maintains equals what its entries say."""
    entries = blacklist.entries()
    stamps = [e.signature.ts for e in entries] + [
        s.tuple.ts for e in entries for s in e.suspended
    ]
    assert blacklist.min_live_ts() == (min(stamps) if stamps else None)
    assert blacklist.suspended_count == sum(len(e.suspended) for e in entries)
    held = sum(
        e.signature.size_bytes + sum(s.tuple.size_bytes for s in e.suspended) for e in entries
    )
    assert blacklist.memory_bytes == held
    excepted = Counter()
    for entry in entries:
        own = [entry.signature.ts] + [s.tuple.ts for s in entry.suspended]
        assert (entry.min_ts(), entry.max_ts()) == (min(own), max(own))
        assert entry.size_bytes == entry.signature.size_bytes + sum(
            s.tuple.size_bytes for s in entry.suspended
        )
        stamps = [s.tuple.ts for s in entry.suspended]
        assert entry.ts_ordered or stamps != sorted(stamps)
        seated = [s for s in entry.suspended if s.original_seq is not None]
        assert sorted(map(id, entry.seats + entry.loose)) == sorted(map(id, seated))
        marks = [s.joined_upto_seq for s in entry.seats]
        assert marks == sorted(marks)
        for suspended in seated:
            excepted.update(suspended.unmet_seqs)
    assert blacklist._excepted == dict(excepted)
    hidden = Counter()
    for entry in entries:
        hidden[entry.gate] += entry.hidden
    assert blacklist.hidden == {gate: count for gate, count in hidden.items() if count}


class _Side:
    """One input of the join: its state (seq -> tuple) and its blacklist."""

    def __init__(self, name: str, context: ExecutionContext) -> None:
        self.name = name
        self.state = {}
        self.next_seq = 0
        self.blacklist = Blacklist(f"{name}.blacklist", context)
        #: The origin of every suspension on this side: it books ``hidden``.
        self.gate = DetectionGate()

    def insert(self, tup, seq=None) -> int:
        if seq is None:
            seq = self.next_seq
        self.next_seq = max(self.next_seq, seq + 1)
        self.state[seq] = tup
        return seq


class BlacklistMachine(RuleBasedStateMachine):
    """Both blacklists of one join, driven the way ``JITJoinOperator`` drives them."""

    def __init__(self) -> None:
        super().__init__()
        self.context = ExecutionContext(window=Window(WINDOW))
        self.sides = (_Side("left", self.context), _Side("right", self.context))
        self.now = 0.0
        self.serial = 0

    def _tuple(self, y, ts=None):
        self.serial += 1
        return make_tuple("A", self.now if ts is None else ts, seq=self.serial, y=y)

    # -- what the operator does ----------------------------------------------------

    @initialize(ys=st.lists(st.integers(0, 2), min_size=8, max_size=16))
    def fill_the_states(self, ys):
        for position, y in enumerate(ys):
            self.now += 0.5
            self.sides[position % 2].insert(self._tuple(y))

    @rule(
        side=st.integers(0, 1),
        ys=st.lists(st.integers(0, 2), min_size=1, max_size=6),
        step=st.sampled_from((0.0, 1.0, 4.0)),
    )
    def arrive(self, side, ys, step):
        """Arrivals: diverted when their key is suspended, inserted otherwise."""
        own = self.sides[side]
        for y in ys:
            self.now += step
            tup = self._tuple(y)
            entry = own.blacklist.match_arrival(tup)
            if entry is None:
                own.insert(tup)
            elif not entry.permanent:
                own.blacklist.add_suspended(
                    entry.signature, tup, joined_upto_seq=-1, now=self.now
                )

    @rule(
        side=st.integers(0, 1),
        y=st.integers(0, 2),
        probing=st.sampled_from(("none", "own", "opposite")),
        scanned=st.integers(0, 6),
        permanent=st.sampled_from((False,) * 7 + (True,)),
        signature_age=st.sampled_from((0.0, 3.0, 25.0)),
    )
    def suspend(self, side, y, probing, scanned, permanent, signature_age):
        """``Suspend_Production``: the super-tuples of one MNS leave the state.

        ``probing`` places the suspension inside a probe, as a re-entrant
        feedback does: of this side's newest tuple (it takes watermark ``-1``
        and the set of entries scanned so far), or of the opposite side's
        newest, whose sequence number — or the one before, for the entries it
        has not scanned yet — is the watermark.
        """
        own, opposite = self.sides[side], self.sides[1 - side]
        signature = _signature(y, ts=max(0.0, self.now - signature_age))
        permanent = permanent and signature not in own.blacklist
        own.blacklist.ensure_entry(signature, self.now, permanent=permanent, gate=own.gate)
        default = opposite.next_seq - 1
        in_flight = max(own.state, default=None) if probing == "own" else None
        probe_seq = max(opposite.state, default=None) if probing == "opposite" else None
        extracted = [seq for seq, tup in own.state.items() if tup.value("A", "y") == y]
        for position, seq in enumerate(extracted):
            tup = own.state.pop(seq)
            watermark, met = default, frozenset()
            if seq == in_flight:
                watermark = -1
                met = frozenset(list(opposite.state)[:scanned])
            elif probe_seq is not None:
                watermark = probe_seq if position < scanned else probe_seq - 1
            unmet = frozenset()
            if watermark >= 0 and len(opposite.blacklist):
                unmet, _examined, _scanned = checked_unmet_exceptions(opposite.blacklist, seq)
            own.blacklist.add_suspended(
                signature, tup, joined_upto_seq=watermark, now=self.now, permanent=permanent,
                original_seq=seq, met_seqs=met, unmet_seqs=unmet,
            )

    @rule(side=st.integers(0, 1), pick=st.integers(0, 50))
    def resume(self, side, pick):
        """A resumption: seated tuples return under their original sequence number."""
        own = self.sides[side]
        entries = own.blacklist.entries()
        if not entries:
            return
        entry = own.blacklist.pop_entry(entries[pick % len(entries)].signature)
        for suspended in entry.suspended:
            own.insert(suspended.tuple, suspended.original_seq)

    @rule(step=st.sampled_from((0.0, 4.0, 11.0, 25.0)))
    def purge(self, step):
        self.now += step
        horizon = self.now - WINDOW
        for side in self.sides:
            counters = self.context.cost.counters
            before = counters[CostKind.PURGE]
            held = side.blacklist.suspended_count
            dropped = side.blacklist.purge(self.now, RETENTION)
            assert dropped <= counters[CostKind.PURGE] - before <= held
            side.state = {seq: t for seq, t in side.state.items() if t.ts >= horizon}
            for entry in side.blacklist.entries():
                assert all(s.tuple.ts + RETENTION > self.now for s in entry.suspended)
                assert entry.hidden == sum(1 for s in entry.suspended if s.tuple.ts >= horizon)

    @precondition(lambda self: any(len(side.blacklist) for side in self.sides))
    @rule(side=st.integers(0, 1), stale=st.floats(0.0, 28.0))
    def suspend_an_older_tuple_again(self, side, stale):
        """What breaks an entry's timestamp order: an old tuple joins it late."""
        own = self.sides[side]
        entries = own.blacklist.entries()
        if not entries or entries[0].permanent:
            return
        tup = self._tuple(entries[0].signature.items[0][2], ts=max(0.0, self.now - stale))
        seq = own.insert(tup)
        del own.state[seq]
        own.blacklist.add_suspended(
            entries[0].signature, tup, joined_upto_seq=self.sides[1 - side].next_seq - 1,
            now=self.now, original_seq=seq,
        )

    # -- what must hold after every step ------------------------------------------------

    @invariant()
    def every_question_has_the_scans_answer(self):
        for side, opposite in (self.sides, self.sides[::-1]):
            # Fresh and re-seated sequence numbers of the opposite state, the
            # numbers of tuples suspended there, and one never handed out.
            for own_seq in range(-1, opposite.next_seq + 2):
                checked_unmet_exceptions(side.blacklist, own_seq)

    @invariant()
    def every_bound_and_count_equals_its_recount(self):
        for side in self.sides:
            _assert_bookkeeping_matches_a_recount(side.blacklist)
        by_category = self.context.memory.by_category
        assert by_category.get(Blacklist.MEMORY_CATEGORY, 0) == sum(
            side.blacklist.memory_bytes for side in self.sides
        )


class TestBlacklistMachine(BlacklistMachine.TestCase):
    settings = settings(
        max_examples=40, stateful_step_count=30, deadline=None, derandomize=True
    )


@pytest.mark.slow
class TestBlacklistMachineSweep(BlacklistMachine.TestCase):
    settings = settings(max_examples=600, stateful_step_count=80, deadline=None)


# ------------------------------------------------------------------ the cost shape


class TestCostShape:
    def _charged(self, context, kind, call):
        before = context.cost.counters[kind]
        result = call()
        return result, context.cost.counters[kind] - before

    def test_a_query_examines_the_seats_before_own_seq_and_one_more(self, context):
        blacklist = Blacklist("bl", context)
        rng = random.Random(5)
        seated = 0
        for position in range(1050):
            y = position % 8
            if position % 21:  # 1 000 diverted arrivals around 50 seated tuples
                blacklist.add_suspended(
                    _signature(y), make_tuple("A", float(position), y=y), -1, now=0.0
                )
                continue
            seated += 1
            blacklist.add_suspended(
                _signature(y), make_tuple("A", float(position), y=y),
                joined_upto_seq=100 + position, now=0.0, original_seq=position,
            )
        assert (blacklist.suspended_count, seated) == (1050, 50)
        for own_seq in [0, 100, 101, 1200] + [rng.randrange(100, 1200) for _ in range(20)]:
            answer, examined, scanned = checked_unmet_exceptions(blacklist, own_seq)
            assert scanned == 1050
            # Eight entries, each walked to its first seat past own_seq.
            assert len(answer) <= examined <= min(50, len(answer) + 8)

    def test_one_entry_one_stop(self, context):
        blacklist = Blacklist("bl", context)
        signature = _signature(y=1)
        for position in range(1000):
            blacklist.add_suspended(signature, make_tuple("A", 1.0, y=1), -1, now=1.0)
        for seq in range(50):
            blacklist.add_suspended(
                signature, make_tuple("A", 1.0, y=1), joined_upto_seq=2 * seq, now=1.0,
                original_seq=seq,
            )
        answer, examined, scanned = checked_unmet_exceptions(blacklist, 41)
        assert (len(answer), examined, scanned) == (21, 22, 1050)
        assert checked_unmet_exceptions(blacklist, 500)[1] == 50

    def test_a_dip_goes_loose_and_is_always_examined(self, context):
        blacklist = Blacklist("bl", context)
        signature = _signature(y=1)
        for seq, watermark in enumerate((8, 8, 7, 7, -1, 9)):
            blacklist.add_suspended(
                signature, make_tuple("A", 1.0, y=1), joined_upto_seq=watermark, now=1.0,
                original_seq=seq, met_seqs=frozenset({3}) if watermark < 0 else frozenset(),
            )
        entry = blacklist.entry(signature)
        assert [s.original_seq for s in entry.seats] == [0, 1, 5]
        assert [s.original_seq for s in entry.loose] == [2, 3, 4]
        assert checked_unmet_exceptions(blacklist, 3)[:2] == (frozenset(), 4)
        assert checked_unmet_exceptions(blacklist, 8)[:2] == (frozenset({2, 3, 4}), 4)
        assert checked_unmet_exceptions(blacklist, 9)[:2] == (frozenset({0, 1, 2, 3, 4}), 6)

    def test_a_reseated_own_seq_reaches_past_the_prefix(self, context):
        blacklist = Blacklist("bl", context)
        signature = _signature(y=1)
        for seq in range(10):
            blacklist.add_suspended(
                signature, make_tuple("A", 1.0, y=1), joined_upto_seq=20 + seq, now=1.0,
                original_seq=seq, unmet_seqs=frozenset({4}) if seq == 7 else frozenset(),
            )
        # 4 was suspended opposite while seat 7 was taken, and is back in its state.
        assert checked_unmet_exceptions(blacklist, 4)[:2] == (frozenset({7}), 10)
        assert checked_unmet_exceptions(blacklist, 5)[:2] == (frozenset(), 1)
        blacklist.pop_entry(signature)
        assert not blacklist._excepted

    def test_purge_stops_at_the_first_survivor(self, context):
        blacklist = Blacklist("bl", context)
        signature = _signature(y=1, ts=50.0)
        for position in range(100):
            blacklist.add_suspended(
                signature, make_tuple("A", float(position), y=1), -1, now=float(position)
            )
        dropped, examined = self._charged(
            context, CostKind.PURGE, lambda: blacklist.purge(now=100.0, retention=90.0)
        )
        assert (dropped, examined) == (11, 12)  # ts 0..10 are past 90 s; ts 11 survives
        assert blacklist.min_live_ts() == 11.0
        dropped, examined = self._charged(
            context, CostKind.PURGE, lambda: blacklist.purge(now=500.0, retention=90.0)
        )
        assert (dropped, examined) == (89, 89)  # nothing survives: nothing more to look at
        assert signature not in blacklist

    def test_an_entry_out_of_timestamp_order_is_scanned_until_it_is_in_order_again(
        self, context
    ):
        blacklist = Blacklist("bl", context)
        signature = _signature(y=1, ts=50.0)
        for ts in (20.0, 30.0, 5.0, 40.0):  # 5.0: an older tuple suspended again
            blacklist.add_suspended(signature, make_tuple("A", ts, y=1), -1, now=40.0)
        entry = blacklist.entry(signature)
        assert not entry.ts_ordered and (entry.min_ts(), entry.max_ts()) == (5.0, 50.0)
        assert blacklist.min_live_ts() == 5.0
        dropped, examined = self._charged(
            context, CostKind.PURGE, lambda: blacklist.purge(now=100.0, retention=90.0)
        )
        assert (dropped, examined) == (1, 4)
        assert entry.ts_ordered and blacklist.min_live_ts() == 20.0
        dropped, examined = self._charged(
            context, CostKind.PURGE, lambda: blacklist.purge(now=115.0, retention=90.0)
        )
        assert (dropped, examined) == (1, 2)


# ------------------------------------------------------------------ liveness


def test_suspension_alive_is_the_one_liveness_test():
    """Alive while a suspended tuple is inside retention; a permanent entry never
    resumes, so it keeps no MNS alive; an unknown signature is dead."""
    window = 60.0
    workload = generate_clique_workload(
        n_sources=3, rate=1.0, window_seconds=window, dmax=4, duration=1, seed=0
    )
    plan = build_xjoin_plan(
        ContinuousQuery.from_workload(workload), shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT,
        jit_config=JITConfig(retention_policy=RetentionPolicy.WINDOW),
    )
    ExecutionEngine(plan, ExecutionContext(window=Window(window)))
    operator = plan.join_operators[0]
    assert isinstance(operator, JITJoinOperator)
    signature, other = _signature(y=9), _signature(y=5)
    blacklist = operator.blacklists[PORT_LEFT]
    blacklist.add_suspended(signature, make_tuple("A", 0.0, y=9), 0, now=0.0)
    assert operator.suspension_alive(signature, now=30.0)
    assert not operator.suspension_alive(signature, now=window)
    assert not operator.suspension_alive(other, now=0.0)
    blacklist.add_suspended(other, make_tuple("A", 0.0, y=5), 0, now=0.0, permanent=True)
    assert not operator.suspension_alive(other, now=0.0)
    assert operator.suspended_counts == (1, 0)


# ------------------------------------------------------------------ whole plans


class TestPaperPlanDifferential:
    @pytest.mark.parametrize("seed", (7, 11))
    def test_every_query_of_a_run_has_the_scans_answer(self, seed):
        workload = scaled_workload(
            LEFT_DEEP_DEFAULTS, scale=0.3, duration_windows=3.0, seed=seed
        )
        query = ContinuousQuery.from_workload(workload)
        events, window = workload.events(), workload.window.length
        ref = run_workload(
            build_xjoin_plan(query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_REF), events, window
        )
        plan = build_xjoin_plan(
            query, shape=PLAN_LEFT_DEEP, strategy=STRATEGY_JIT,
            jit_config=JITConfig(retention_policy=RetentionPolicy.WINDOW),
        )
        script_gates(plan)  # pinned open: every port suspends for the whole run
        with blacklists_checked_against_scan() as calls:
            with replays_checked_against_full_scan() as replays:
                jit = run_workload(plan, events, window)
        assert jit.results.multiset() == ref.results.multiset()
        assert jit.results.temporally_ordered
        examined = sum(call[0] for call in calls)
        scanned = sum(call[1] for call in calls)
        assert len(calls) > 500 and 0 < 3 * examined < scanned
        # A seated tuple's replay starts behind what it had met: it visits a
        # fraction of the state; a diverted arrival's visits all of it.
        visited = sum(replay[0] for replay in replays)
        present = sum(replay[1] for replay in replays)
        assert len(replays) > 300 and 0 < visited < 0.7 * present
        for operator in plan.join_operators:
            for blacklist in operator.blacklists.values():
                _assert_bookkeeping_matches_a_recount(blacklist)
