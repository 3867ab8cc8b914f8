"""Small helpers shared by the test modules."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.blacklist import Blacklist, SuspendedTuple
from repro.core.detection_gate import DetectionGate
from repro.core.feedback import FeedbackKind
from repro.core.jit_join import JITJoinOperator
from repro.core.mns_detection import LatticeMNSDetector
from repro.engine import run_workload
from repro.metrics import CostKind
from repro.operators.queues import InterOperatorQueue
from repro.scheduler import OperatorScheduler, ReadyInput
from repro.streams.tuples import AtomicTuple, join_tuples


def make_tuple(source: str, ts: float, seq: int = 0, **attrs: object) -> AtomicTuple:
    """Build an atomic tuple from keyword attribute values."""
    return AtomicTuple(source, ts, attrs, seq=seq)


def specification_results(query, events) -> Counter:
    """What ``query`` defines over ``events``, by brute force: the multiset of
    result keys (``repro.engine.results.result_key``) of every combination of
    one event per source that satisfies every join condition and whose
    stamps lie within one window, ``max ts - min ts <= w`` — inclusive, like
    ``Window.joins``.

    No plan, state, purge or horizon: nested loops over each source's events
    in query order.  A partial combination already spanning more than ``w``
    or failing a condition among its members is not extended, which changes
    nothing the full combination would decide.  Selections and projections
    are not modelled.
    """
    assert not query.selections and not query.projection
    by_source = {source: [] for source in query.sources}
    for event in events:
        by_source[event.source].append(event.tuple)
    conditions = query.predicate.conditions
    results: Counter = Counter()
    chosen = {}

    def extend(position: int, oldest: float, newest: float) -> None:
        if position == len(query.sources):
            key = tuple(sorted((t.source, t.seq) for t in chosen.values()))
            results[(key, newest)] += 1
            return
        source = query.sources[position]
        for tup in by_source[source]:
            low, high = min(oldest, tup.ts), max(newest, tup.ts)
            if high - low > query.window.length:
                continue
            chosen[source] = tup
            if all(
                cond.evaluate(chosen[cond.left.source], chosen[cond.right.source])
                for cond in conditions
                if source in cond.sources and cond.sources <= chosen.keys()
            ):
                extend(position + 1, low, high)
            del chosen[source]

    extend(0, float("inf"), float("-inf"))
    return results


class ScriptedGate(DetectionGate):
    """A detection gate that follows a script instead of its ledger.

    ``slots`` are consecutive stretches of stream time, ``slot_windows``
    windows long each, cycled: True detects, False rests.  The default pins
    the gate open — the paper's behaviour.  ``spend`` / ``avoid`` still book.
    """

    def __init__(self, slots=(True,), slot_windows: float = 1.0) -> None:
        super().__init__()
        self.slots = tuple(slots)
        self.slot_windows = slot_windows

    def open_at(self, now: float, window: float) -> bool:
        return self.slots[int(now / (window * self.slot_windows)) % len(self.slots)]


def script_gates(plan, make_gate=ScriptedGate) -> None:
    """Replace every detection gate of ``plan`` (call before running it)."""
    for operator in plan.join_operators:
        if isinstance(operator, JITJoinOperator):
            for port in operator.ports:
                operator.gates[port] = make_gate()


@dataclass(frozen=True)
class GateEpoch:
    """One epoch of a live ``DetectionGate``, as it was closed."""

    #: The stream time the epoch was due to end at.
    end: float
    #: Units booked on the gate during the epoch.
    spent: float
    avoided: float
    #: "open" (it paid, or tied), "rest" (it lost) or "trial" (a rest ended).
    decision: str
    #: The rest it started, in windows; 0 unless ``decision`` is "rest".
    rest: int


@contextmanager
def gate_epochs():
    """Record every epoch close of every live ``DetectionGate`` inside.

    Yields a dict gate -> list of ``GateEpoch``, in the order they closed.
    A scripted gate closes no epochs, so it is not in the log.
    """
    log = {}
    shipped = DetectionGate._next_epoch_windows

    def closing(gate):
        end, was_resting = gate._epoch_end, gate.resting
        spent = gate.spent_units - gate._spent_mark
        avoided = gate.avoided_units - gate._avoided_mark
        windows = shipped(gate)
        decision = "trial" if was_resting else "rest" if gate.resting else "open"
        rest = windows if gate.resting else 0
        log.setdefault(gate, []).append(GateEpoch(end, spent, avoided, decision, rest))
        return windows

    DetectionGate._next_epoch_windows = closing
    try:
        yield log
    finally:
        DetectionGate._next_epoch_windows = shipped


@dataclass(frozen=True)
class AuditedWindow:
    """One window of stream time in ``audit_avoided``'s two runs."""

    start: float
    #: What the audited gate booked, pinned open.
    spent: float
    avoided: float
    #: What the whole plan cost with the audited gate pinned open / shut.
    open_units: float
    shut_units: float

    @property
    def actual(self) -> float:
        """What the gate's suspensions really saved: the units the shut run
        cost beyond the open run's, once the open run's detection (``spent``)
        is taken out of it."""
        return self.shut_units - (self.open_units - self.spent)


def audit_avoided(setup, gate: str):
    """The counterfactual behind ``DetectionGate.avoided_units``.

    ``setup()`` makes a fresh (plan, events, window).  It runs twice with
    every gate pinned open, the second time with ``gate`` (``"Op3.left"``)
    pinned shut: the only difference is whether that port detects.  Returns
    one ``AuditedWindow`` per window of stream time from the first event.
    """
    name, port = gate.split(".")

    def run(shut):
        plan, events, window = setup()
        script_gates(plan)
        (operator,) = [op for op in plan.join_operators if op.name == name]
        if shut:
            operator.gates[port] = ScriptedGate((False,))
        audited = operator.gates[port]
        marks = []

        def mark(at):
            cost = plan.root.require_context().cost
            marks.append((at, cost.cpu_units, audited.spent_units, audited.avoided_units))

        def metered():
            for event in events:
                if not marks:
                    mark(event.ts)
                while event.ts >= marks[-1][0] + window:
                    mark(marks[-1][0] + window)
                yield event
            mark(float("inf"))

        run_workload(plan, metered(), window)
        return marks

    opened, shut = run(False), run(True)
    return [
        AuditedWindow(
            start=start, spent=spent_end - spent, avoided=avoided_end - avoided,
            open_units=open_end - open_units, shut_units=shut_end - shut_units,
        )
        for (start, open_units, spent, avoided), (_, open_end, spent_end, avoided_end),
        (_, shut_units, _, _), (_, shut_end, _, _)
        in zip(opened, opened[1:], shut, shut[1:])
    ]


class EagerExceptions:
    """The reference for ``SuspendedTuple.met``: the exception sets the operator
    used to compute when a record was made, and the ``has_met`` that read them.

    ``note(record, opposite)`` lists every seated tuple of the ``opposite``
    blacklist that has not met the record's tuple (the scan the deleted
    ``Blacklist.unmet_exceptions_for`` replaced; only for a record with a
    watermark), ``has_met(record, seq)`` is the deleted
    ``SuspendedTuple.has_met`` over those lists.  ``scanned`` counts the
    suspended tuples the scans examined.  Every record noted is kept alive,
    so no ``id`` is reused.
    """

    def __init__(self) -> None:
        self.unmet = {}
        self.records = []
        self.scanned = 0

    def note(self, record, opposite) -> None:
        unmet = set()
        if record.joined_upto_seq >= 0:
            for entry in opposite.entries():
                for other in entry.suspended:
                    self.scanned += 1
                    if other.original_seq is not None and not self.has_met(
                        other, record.original_seq
                    ):
                        unmet.add(other.original_seq)
        self.unmet[id(record)] = frozenset(unmet)
        self.records.append(record)

    def has_met(self, record, seq) -> bool:
        if seq in record.met_seqs:
            return True
        return seq <= record.joined_upto_seq and seq not in self.unmet[id(record)]


@contextmanager
def eager_exceptions():
    """Note every blacklist record made inside in a fresh ``EagerExceptions``,
    against the opposite blacklist of the operator suspending; yields it."""
    shadow = EagerExceptions()
    suspending = []
    shipped_suspend = JITJoinOperator._suspend_production
    shipped_add = Blacklist.add_suspended

    def suspend(self, *args, **kwargs):
        suspending.append(self)
        try:
            return shipped_suspend(self, *args, **kwargs)
        finally:
            suspending.pop()

    def add(blacklist, *args, **kwargs):
        record = shipped_add(blacklist, *args, **kwargs)
        if record is not None:
            opposite = None
            if record.joined_upto_seq >= 0:  # only a suspension hands out watermarks
                (opposite,) = [
                    other for other in suspending[-1].blacklists.values() if other is not blacklist
                ]
            shadow.note(record, opposite)
        return record

    JITJoinOperator._suspend_production = suspend
    Blacklist.add_suspended = add
    try:
        yield shadow
    finally:
        JITJoinOperator._suspend_production = shipped_suspend
        Blacklist.add_suspended = shipped_add


class UnprunedLattice:
    """The reference for ``CNSLattice``: ``Identify_MNS`` with every node visited
    for every opposite tuple, dead or not — what ``observe`` did before dead
    nodes left it.  ``observe_all`` takes the outcome of every component;
    ``visited`` counts the node visits (what it charged in ``LATTICE_NODE``).
    """

    def __init__(self, components, max_level=None):
        names = sorted(set(components))
        top = len(names) if max_level is None else min(max_level, len(names))
        self.nodes = [
            frozenset(subset)
            for level in range(1, top + 1)
            for subset in combinations(names, level)
        ]
        self.alive = set(self.nodes)
        self.visited = 0

    def observe_all(self, row):
        self.visited += len(self.nodes)
        self.alive -= {node for node in self.nodes if all(row[name] for name in node)}

    def surviving_mns(self):
        return [
            node for node in self.nodes
            if node in self.alive and not any(other < node for other in self.alive)
        ]


class UnprunedDetector(LatticeMNSDetector):
    """The reference for the settled, pruned detecting probe: a lattice
    detector that settles nothing by lookup, keeps every component pending
    for the whole scan and visits every node for every opposite tuple.
    Installed in ``operator.detectors[port]`` it makes ``_probe_opposite``
    evaluate every component's conditions against every entry — the probe
    as it ran before lookups settled components and dead nodes left it."""

    def start(self, tup):
        self.reference = UnprunedLattice(self.components, self.lattice.max_level)
        self.pending = self.components

    def settle(self, tup, matched):
        return ()

    def observe(self, tup, matches):
        self.reference.observe_all(matches)
        self.context.cost.charge(CostKind.LATTICE_NODE, len(self.reference.nodes))

    def finish(self, tup):
        self.context.cost.charge(CostKind.LATTICE_NODE, len(self.reference.nodes))
        return [self.signature_for(tup, node) for node in self.reference.surviving_mns()]


@dataclass
class ReplayChecks:
    """What ``replays_checked_against_full_scan`` saw."""

    #: The eager exception sets of every record made.
    shadow: EagerExceptions
    #: One ``(visited, present)`` per replay.
    replays: list = field(default_factory=list)
    #: One ``(met, examined)`` per pair test: its answer and the records it examined.
    pairs: list = field(default_factory=list)


@contextmanager
def replays_checked_against_full_scan():
    """Check every ``JITJoinOperator._join_resumed`` call made inside against
    the scan it replaced: every present opposite entry, told apart by the
    eager exception sets alone (``EagerExceptions.has_met``).  The partials
    produced must be equal, in order, the call must visit no more entries
    than are present, and every answer of ``SuspendedTuple.met`` must be the
    eager sets' answer.  Yields a ``ReplayChecks``.
    """
    shipped_join = JITJoinOperator._join_resumed
    shipped_met = SuspendedTuple.met

    with eager_exceptions() as shadow:
        checks = ReplayChecks(shadow)

        def met(record, other_seq, chain, cost):
            before = cost.counters[CostKind.BLACKLIST_SCAN]
            answer = shipped_met(record, other_seq, chain, cost)
            assert answer == shadow.has_met(record, other_seq), (record.original_seq, other_seq)
            checks.pairs.append((answer, cost.counters[CostKind.BLACKLIST_SCAN] - before))
            return answer

        def checked(self, tup, port, record=None):
            scans = []
            candidates = self.probe_candidates

            def recording(probing, probe_port, **bounds):
                present = self.states[probe_port].entries()
                visited = list(candidates(probing, probe_port, **bounds))
                scans.append((visited, present))
                return visited

            self.probe_candidates = recording
            try:
                produced = shipped_join(self, tup, port, record)
            finally:
                del self.probe_candidates
            ((visited, present),) = scans
            joins = self.require_context().window.joins
            expected = [
                join_tuples(tup, entry.tuple)
                for entry in present
                if (record is None or not shadow.has_met(record, entry.seq))
                and joins(tup, entry.tuple)
                and all(cond.evaluate(tup, entry.tuple) for cond in self.local_conditions)
            ]
            assert produced == expected, (self.name, port, record and record.original_seq)
            assert len(visited) <= len(present)
            checks.replays.append((len(visited), len(present)))
            return produced

        JITJoinOperator._join_resumed = checked
        SuspendedTuple.met = met
        try:
            yield checks
        finally:
            JITJoinOperator._join_resumed = shipped_join
            SuspendedTuple.met = shipped_met


class StubOperator:
    """Stands in for an operator where a scheduler only needs an identity."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"StubOperator({self.name})"


def ready_input(context, name, ts, order, operator=None) -> ReadyInput:
    """A hand-built ready input whose queue holds one tuple stamped ``ts``."""
    queue = InterOperatorQueue(f"q{order}", context)
    queue.push(AtomicTuple(name, ts, {"x": 1}))
    return ReadyInput(
        operator=operator if operator is not None else StubOperator(name),
        port="left",
        queue=queue,
        order=order,
    )


def record_pops(scheduler: OperatorScheduler, pops: list) -> OperatorScheduler:
    """Append the ``order`` of every input ``scheduler`` pops to ``pops``.

    The drain loop binds ``pop_next`` from the instance at drain entry, so
    an instance attribute is enough.
    """
    inner = scheduler.pop_next

    def pop_next():
        item = inner()
        pops.append(item.order)
        return item

    scheduler.pop_next = pop_next
    return scheduler


class MinimalFIFOScheduler(OperatorScheduler):
    """A policy that implements only the four delta and decision methods.

    It keeps its ready inputs in the inherited ``_ready`` map and relies on
    the base class for ``ready_count``, ``ready_items`` and ``retire`` — the
    smallest policy the :class:`OperatorScheduler` contract admits.
    """

    def on_ready(self, item):
        self._ready[item.order] = item

    def on_unready(self, item):
        self._ready.pop(item.order, None)

    def on_head_change(self, item):
        pass

    def pop_next(self):
        return min(self._ready.values(), key=lambda item: (item.head_ts, item.order))


class LinearScanScheduler(OperatorScheduler):
    """The scheduling reference: the delta interface over one plain dict.

    ``pop_next`` is ``min()`` over every ready input under the policy's key,
    read off the live queue heads — O(ready) per step and plainly right.  The
    shipped heap policies must pop in exactly this order.
    """

    def __init__(self, policy: str, boost_steps: int = 8):
        super().__init__()
        self.name = policy
        self._key = getattr(self, f"_{policy}_key")
        #: jit_aware: id(operator) -> boosted servings left.
        self._boosts = {}
        self.boost_steps = boost_steps
        self.boosts_granted = self.boosted_servings = 0

    def _fifo_key(self, item):
        return (item.head_ts, item.order)

    def _jit_aware_key(self, item):
        return (id(item.operator) not in self._boosts, item.head_ts, item.order)

    def on_ready(self, item):
        self._ready[item.order] = item

    def on_unready(self, item):
        self._ready.pop(item.order, None)

    def on_head_change(self, item):
        """Nothing to refresh: keys are recomputed at every pop."""

    def pop_next(self):
        choice = min(self._ready.values(), key=self._key)
        op = id(choice.operator)
        if op in self._boosts:
            self.boosted_servings += 1
            self._boosts[op] -= 1
            if not self._boosts[op]:
                del self._boosts[op]
        return choice

    def notify_feedback(self, producer, consumer, kind):
        if self.name == "jit_aware":
            suspending = kind in (FeedbackKind.SUSPEND, FeedbackKind.MARK)
            self._boosts[id(consumer if suspending else producer)] = self.boost_steps
            self.boosts_granted += 1

    def retire(self, items):
        for item in items:
            self.on_unready(item)
            if all(i.operator is not item.operator for i in self._ready.values()):
                self._boosts.pop(id(item.operator), None)
