"""Small helpers shared by the test modules."""

from __future__ import annotations

from contextlib import contextmanager
from itertools import combinations

from repro.core.blacklist import Blacklist
from repro.core.detection_gate import DetectionGate
from repro.core.feedback import FeedbackKind
from repro.core.jit_join import JITJoinOperator
from repro.core.mns_detection import LatticeMNSDetector
from repro.metrics import CostKind
from repro.operators.queues import InterOperatorQueue
from repro.scheduler import OperatorScheduler, ReadyInput
from repro.streams.tuples import AtomicTuple, join_tuples


def make_tuple(source: str, ts: float, seq: int = 0, **attrs: object) -> AtomicTuple:
    """Build an atomic tuple from keyword attribute values."""
    return AtomicTuple(source, ts, attrs, seq=seq)


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


def scan_unmet_exceptions(blacklist: Blacklist, own_seq: int):
    """The reference for ``Blacklist.unmet_exceptions_for``: the scan it replaced.

    Every suspended tuple of every entry is examined and asked ``has_met``.
    Returns the set and the number of tuples examined (what the scan charged
    in ``BLACKLIST_SCAN``); charges nothing itself.
    """
    unmet, examined = set(), 0
    for entry in blacklist.entries():
        for suspended in entry.suspended:
            examined += 1
            if suspended.original_seq is not None and not suspended.has_met(own_seq):
                unmet.add(suspended.original_seq)
    return frozenset(unmet), examined


def checked_unmet_exceptions(
    blacklist: Blacklist, own_seq: int, ask=Blacklist.unmet_exceptions_for
):
    """Ask ``blacklist`` and the scan; they must agree, the scan examining no less.

    Returns ``(answer, examined, scanned)``.
    """
    expected, scanned = scan_unmet_exceptions(blacklist, own_seq)
    counters = blacklist.context.cost.counters
    before = counters[CostKind.BLACKLIST_SCAN]
    answer = ask(blacklist, own_seq)
    examined = counters[CostKind.BLACKLIST_SCAN] - before
    assert answer == expected, (blacklist.name, own_seq, sorted(answer), sorted(expected))
    assert examined <= scanned, (blacklist.name, own_seq, examined, scanned)
    return answer, examined, scanned


@contextmanager
def blacklists_checked_against_scan():
    """Check every ``unmet_exceptions_for`` call made inside against the scan.

    Yields the list of ``(examined, scanned)`` pairs, one per call.
    """
    calls = []
    shipped = Blacklist.unmet_exceptions_for

    def checked(blacklist, own_seq):
        answer, examined, scanned = checked_unmet_exceptions(blacklist, own_seq, shipped)
        calls.append((examined, scanned))
        return answer

    Blacklist.unmet_exceptions_for = checked
    try:
        yield calls
    finally:
        Blacklist.unmet_exceptions_for = shipped


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
    """The reference for the pruned detecting probe: a lattice detector that
    keeps every component pending for the whole scan and visits every node
    for every opposite tuple.  Installed in ``operator.detectors[port]`` it
    makes ``_probe_opposite`` evaluate every component's conditions against
    every entry — the probe as it ran before dead nodes left it."""

    def start(self, tup):
        self.reference = UnprunedLattice(self.components, self.lattice.max_level)
        self.pending = self.components

    def observe(self, tup, matches):
        self.reference.observe_all(matches)
        self.context.cost.charge(CostKind.LATTICE_NODE, len(self.reference.nodes))

    def finish(self, tup):
        self.context.cost.charge(CostKind.LATTICE_NODE, len(self.reference.nodes))
        return [self.signature_for(tup, node) for node in self.reference.surviving_mns()]


@contextmanager
def replays_checked_against_full_scan():
    """Check every ``JITJoinOperator._join_resumed`` call made inside against
    the scan it replaced: every present opposite entry, told apart by the
    sequence watermark, ``met_seqs`` and ``unmet_seqs`` alone.  The partials
    produced must be equal, in order, and the call must visit no more
    entries than are present.

    Yields the list of ``(visited, present)`` pairs, one per call.
    """
    calls = []
    shipped = JITJoinOperator._join_resumed

    def checked(
        self, tup, port, watermark, now, met_seqs=frozenset(), unmet_seqs=frozenset(),
        original_seq=None, joined_upto_order=-1,
    ):
        scans = []
        candidates = self.probe_candidates

        def recording(probing, probe_port, **bounds):
            present = self.states[probe_port].entries()
            visited = list(candidates(probing, probe_port, **bounds))
            scans.append((visited, present))
            return visited

        self.probe_candidates = recording
        try:
            produced = shipped(
                self, tup, port, watermark, now, met_seqs, unmet_seqs, original_seq,
                joined_upto_order,
            )
        finally:
            del self.probe_candidates
        ((visited, present),) = scans
        joinable = self.require_context().window.joinable
        expected = [
            join_tuples(tup, entry.tuple)
            for entry in present
            if entry.seq not in met_seqs
            and (entry.seq > watermark or entry.seq in unmet_seqs)
            and joinable(tup.ts, entry.tuple.ts)
            and all(cond.evaluate(tup, entry.tuple) for cond in self.local_conditions)
        ]
        assert produced == expected, (self.name, port, watermark, joined_upto_order)
        assert len(visited) <= len(present)
        calls.append((len(visited), len(present)))
        return produced

    JITJoinOperator._join_resumed = checked
    try:
        yield calls
    finally:
        JITJoinOperator._join_resumed = shipped


class StubOperator:
    """Stands in for an operator where a scheduler only needs an identity."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"StubOperator({self.name})"


def ready_input(context, name, ts, order, depth=0, operator=None) -> ReadyInput:
    """A hand-built ready input whose queue holds one tuple stamped ``ts``."""
    queue = InterOperatorQueue(f"q{order}", context)
    queue.push(AtomicTuple(name, ts, {"x": 1}))
    return ReadyInput(
        operator=operator if operator is not None else StubOperator(name),
        port="left",
        queue=queue,
        depth=depth,
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


class LinearScanScheduler(OperatorScheduler):
    """The scheduling reference: the delta interface over one plain dict.

    ``pop_next`` is ``min()`` over every ready input under the policy's key,
    read off the live queue heads — O(ready) per step and plainly right.  The
    shipped heap policies must pop in exactly this order.
    """

    def __init__(self, policy: str, boost_steps: int = 8, prefer_downstream: bool = True):
        self.name = policy
        self._key = getattr(self, f"_{policy}_key")
        self._ready = {}
        #: round_robin: order -> (step last served, first-sight rank).
        self._history = {}
        self._step = self._next_rank = 0
        self._sign = 1 if prefer_downstream else -1
        #: jit_aware: id(operator) -> boosted servings left.
        self._boosts = {}
        self.boost_steps = boost_steps
        self.boosts_granted = self.boosted_servings = 0

    def _fifo_key(self, item):
        return (item.head_ts, item.order)

    def _priority_key(self, item):
        return (self._sign * item.depth, item.head_ts, item.order)

    def _round_robin_key(self, item):
        return self._history[item.order]

    def _jit_aware_key(self, item):
        return (id(item.operator) not in self._boosts, item.head_ts, item.order)

    def on_ready(self, item):
        self._ready[item.order] = item

    def on_unready(self, item):
        self._ready.pop(item.order, None)

    def on_head_change(self, item):
        """Nothing to refresh: keys are recomputed at every pop."""

    def ready_count(self):
        return len(self._ready)

    def pop_next(self):
        for order in sorted(self._ready):
            if order not in self._history:
                self._history[order] = (-1, self._next_rank)
                self._next_rank += 1
        choice = min(self._ready.values(), key=self._key)
        self._step += 1
        self._history[choice.order] = (self._step, self._history[choice.order][1])
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
            self._history.pop(item.order, None)
            if all(i.operator is not item.operator for i in self._ready.values()):
                self._boosts.pop(id(item.operator), None)
