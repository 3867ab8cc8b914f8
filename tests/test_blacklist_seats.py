"""Watermark exceptions are decided at the pair (docs/JIT.md, "Watermark exceptions").

* a state machine plays both sides of one join — arrivals, suspensions under
  every watermark the operator hands out (default, ``-1`` with ``met_seqs``,
  the in-flight probe's ``own_seq`` and ``own_seq - 1``), diverted arrivals,
  resumptions that re-insert tuples under their original sequence number,
  purges — stamping every record with the operator's moments, and after every
  step asks every suspended tuple about every present opposite entry: the
  pair test (``SuspendedTuple.met``) must give the answer of the exception
  sets the operator used to compute eagerly (:class:`helpers.EagerExceptions`),
  examining no record beyond the two tuples' histories, and every maintained
  bound and count must equal its recomputation from scratch;
* the cost shape: a pair the watermark decides examines no record, one
  step back in time examines one record per tuple history it reads, and a
  purge examines the tuples it drops and one more;
* the paper's left-deep plan: every replay of a whole run produces what the
  full scan under the eager exception sets produces, and every pair test on
  the way gives their answer (:func:`helpers.replays_checked_against_full_scan`;
  the toggle matrix of ``test_detection_gate.py`` runs under the same check).
"""

from __future__ import annotations

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
from repro.core.blacklist import Blacklist, SuspendedTuple
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
    EagerExceptions,
    make_tuple,
    replays_checked_against_full_scan,
    script_gates,
)

WINDOW = 20.0
RETENTION = 30.0  # longer than the window, so a purge keeps tuples REF has dropped


def _signature(y, ts=0.0):
    return MNSSignature.from_components(make_tuple("A", ts, y=y), ("A",), [("A", "y")])


def _history(record):
    """How many records a pair test can read on ``record``'s chain."""
    count = 0
    while record is not None:
        count, record = count + 1, record.previous
    return count


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
    for entry in entries:
        own = [entry.signature.ts] + [s.tuple.ts for s in entry.suspended]
        assert (entry.min_ts(), entry.newest().ts) == (min(own), max(own))
        assert entry.size_bytes == entry.signature.size_bytes + sum(
            s.tuple.size_bytes for s in entry.suspended
        )
        stamps = [s.tuple.ts for s in entry.suspended]
        assert entry.ts_ordered or stamps != sorted(stamps)
    hidden = {}
    for entry in entries:
        hidden[entry.gate] = hidden.get(entry.gate, 0) + entry.hidden
    assert blacklist.hidden == {gate: count for gate, count in hidden.items() if count}


class _Side:
    """One input of the join: its state (seq -> (tuple, came_from)) and its blacklist."""

    def __init__(self, name: str, context: ExecutionContext) -> None:
        self.name = name
        self.state = {}
        self.next_seq = 0
        self.blacklist = Blacklist(f"{name}.blacklist", context)
        #: The origin of every suspension on this side: it books ``hidden``.
        self.gate = DetectionGate()

    def insert(self, tup, seq=None, came_from=None) -> int:
        if seq is None:
            seq = self.next_seq
        self.next_seq = max(self.next_seq, seq + 1)
        self.state[seq] = (tup, came_from)
        return seq


class BlacklistMachine(RuleBasedStateMachine):
    """Both blacklists of one join, driven the way ``JITJoinOperator`` drives them."""

    def __init__(self) -> None:
        super().__init__()
        self.context = ExecutionContext(window=Window(WINDOW))
        self.sides = (_Side("left", self.context), _Side("right", self.context))
        self.now = 0.0
        self.serial = 0
        #: The operator's moment: how many records it has made.
        self.moment = 0
        self.eager = EagerExceptions()

    def _tuple(self, y, ts=None):
        self.serial += 1
        return make_tuple("A", self.now if ts is None else ts, seq=self.serial, y=y)

    def _park(self, side, signature, tup, watermark, opposite=None, **fields):
        """Make a record, as ``add_suspended`` does for the operator, and note
        its eager exception set against ``opposite``'s blacklist."""
        self.moment += 1
        record = side.blacklist.add_suspended(
            signature, tup, joined_upto_seq=watermark, now=self.now, created=self.moment,
            **fields,
        )
        if record is not None:
            self.eager.note(record, opposite and opposite.blacklist)

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
                self._park(own, entry.signature, tup, -1)

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
        extracted = [seq for seq, (tup, _) in own.state.items() if tup.value("A", "y") == y]
        for position, seq in enumerate(extracted):
            tup, came_from = own.state.pop(seq)
            watermark, met = default, frozenset()
            if seq == in_flight:
                watermark = -1
                met = frozenset(list(opposite.state)[:scanned])
            elif probe_seq is not None:
                watermark = probe_seq if position < scanned else probe_seq - 1
            self._park(
                own, signature, tup, watermark, opposite, permanent=permanent,
                original_seq=seq, met_seqs=met, previous=came_from,
            )

    @rule(side=st.integers(0, 1), pick=st.integers(0, 50))
    def resume(self, side, pick):
        """A resumption: every record's tuple returns, a seated one under its
        original sequence number, and its record ends now."""
        own = self.sides[side]
        entries = own.blacklist.entries()
        if not entries:
            return
        entry = own.blacklist.pop_entry(entries[pick % len(entries)].signature)
        for record in entry.suspended:
            own.insert(record.tuple, record.original_seq, came_from=record)
            record.ended = self.moment

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
            side.state = {seq: kept for seq, kept in side.state.items() if kept[0].ts >= horizon}
            for entry in side.blacklist.entries():
                assert all(s.tuple.ts + RETENTION > self.now for s in entry.suspended)
                assert entry.hidden == sum(1 for s in entry.suspended if s.tuple.ts >= horizon)

    @precondition(lambda self: any(len(side.blacklist) for side in self.sides))
    @rule(side=st.integers(0, 1), stale=st.floats(0.0, 28.0))
    def suspend_an_older_tuple_again(self, side, stale):
        """What breaks an entry's timestamp order: an old tuple joins it late."""
        own, opposite = self.sides[side], self.sides[1 - side]
        entries = own.blacklist.entries()
        if not entries or entries[0].permanent:
            return
        tup = self._tuple(entries[0].signature.items[0][2], ts=max(0.0, self.now - stale))
        seq = own.insert(tup)
        del own.state[seq]
        self._park(
            own, entries[0].signature, tup, opposite.next_seq - 1, opposite, original_seq=seq
        )

    # -- what must hold after every step ------------------------------------------------

    @invariant()
    def every_pair_test_has_the_eager_answer(self):
        counters = self.context.cost.counters
        for side, opposite in (self.sides, self.sides[::-1]):
            for entry in side.blacklist.entries():
                for record in entry.suspended:
                    for seq, (_tup, came_from) in opposite.state.items():
                        before = counters[CostKind.BLACKLIST_SCAN]
                        answer = record.met(seq, came_from, self.context.cost)
                        examined = counters[CostKind.BLACKLIST_SCAN] - before
                        assert answer == self.eager.has_met(record, seq), (record.created, seq)
                        assert examined <= _history(came_from) + _history(record.previous)

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
        max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
    )


@pytest.mark.slow
class TestBlacklistMachineSweep(BlacklistMachine.TestCase):
    settings = settings(max_examples=600, stateful_step_count=80, deadline=None)


# ------------------------------------------------------------------ the cost shape


def _record(original_seq, watermark, created, previous=None, met_seqs=frozenset()):
    return SuspendedTuple(
        tuple=make_tuple("A", 1.0, y=1), joined_upto_seq=watermark, suspended_at=1.0,
        original_seq=original_seq, met_seqs=met_seqs, created=created, previous=previous,
    )


class TestCostShape:
    def _charged(self, context, kind, call):
        before = context.cost.counters[kind]
        result = call()
        return result, context.cost.counters[kind] - before

    def _met(self, context, record, other_seq, chain):
        return self._charged(
            context, CostKind.BLACKLIST_SCAN, lambda: record.met(other_seq, chain, context.cost)
        )

    def test_the_watermark_and_met_seqs_decide_without_examining(self, context):
        chain = _record(4, watermark=2, created=1)
        chain.ended = 1
        record = _record(7, watermark=5, created=3, met_seqs=frozenset({8}))
        assert self._met(context, record, 8, chain) == (True, 0)
        assert self._met(context, record, 9, chain) == (False, 0)
        # Never re-inserted from a suspension: it was in the state all along.
        assert self._met(context, record, 4, None) == (True, 0)

    def test_a_partner_back_in_the_state_before_the_suspension_met(self, context):
        # y (seq 4) was suspended and re-inserted; x was suspended after that.
        y = _record(4, watermark=6, created=1)
        y.ended = 1
        x = _record(7, watermark=9, created=2)
        assert self._met(context, x, 4, y) == (True, 1)

    def test_a_partner_suspended_at_the_same_time_is_asked_in_turn(self, context):
        # y (seq 4) is suspended before x (seq 7) arrives; x probes a state
        # without y and is suspended; y's replay re-inserts it while x is
        # still parked (no record made in between: the same moment).
        y = _record(4, watermark=6, created=1)
        x = _record(7, watermark=9, created=2)
        y.ended = 2
        assert self._met(context, x, 4, y) == (False, 1)
        # Had y been back before x was suspended, they would have met.
        y.ended = 1
        assert self._met(context, x, 4, y) == (True, 1)

    def test_the_question_walks_back_through_both_histories(self, context):
        # x (seq 7) is suspended before y (seq 4) arrives (x1); y is suspended
        # while x is parked (y1); x comes back and is suspended again (x2,
        # after x1); y comes back; now x2's replay meets y.
        x1 = _record(7, watermark=3, created=1)
        y1 = _record(4, watermark=9, created=2)
        x1.ended = 2
        x2 = _record(7, watermark=9, created=3, previous=x1)
        y1.ended = 3
        # x2 -> y1 (suspended at once) -> x1 (suspended at once) -> 4 > 3.
        assert self._met(context, x2, 4, y1) == (False, 2)
        # Newer records of y on the chain are stepped over, one examined each.
        y2 = _record(4, watermark=9, created=5, previous=y1)
        y2.ended = 6
        assert self._met(context, x2, 4, y2) == (False, 3)

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
        assert not entry.ts_ordered and (entry.min_ts(), entry.newest().ts) == (5.0, 50.0)
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
    def test_every_replay_of_a_run_has_the_eager_answer(self, seed):
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
        with replays_checked_against_full_scan() as checks:
            jit = run_workload(plan, events, window)
        assert jit.results.multiset() == ref.results.multiset()
        assert jit.results.temporally_ordered
        # A seated tuple's replay starts behind what it had met: it visits a
        # fraction of the state; a diverted arrival's visits all of it.
        visited = sum(replay[0] for replay in checks.replays)
        present = sum(replay[1] for replay in checks.replays)
        assert len(checks.replays) > 300 and 0 < visited < 0.7 * present
        # Pairs are asked about only where a replay reaches them, real
        # exceptions among them, and each reads a record or two.
        assert len(checks.pairs) > 50
        assert 0 < sum(1 for met, _ in checks.pairs if not met) < len(checks.pairs)
        examined = sum(examined for _, examined in checks.pairs)
        assert len(checks.pairs) <= examined <= 3 * len(checks.pairs)
        assert 20 * examined < checks.shadow.scanned
        for operator in plan.join_operators:
            for blacklist in operator.blacklists.values():
                _assert_bookkeeping_matches_a_recount(blacklist)
