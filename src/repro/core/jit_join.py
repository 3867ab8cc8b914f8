"""The JIT-enabled binary window join (Figure 6 of the paper).

:class:`JITJoinOperator` extends the REF join of
:mod:`repro.operators.join` with both halves of the JIT feedback mechanism:

**As a consumer** (``Process_Input``), for every input tuple ``t`` it

1. probes ``t`` against the MNS buffer of the *opposite* port and, on a hit,
   sends a resumption feedback to the opposite producer;
2. probes ``t`` against the opposite operator state, emitting join results,
   after the configured MNS detector has settled what index lookups can
   answer, and feeding it the rest per entry (the paper's "combined with a
   nested loop join" of Section IV-A);
3. retrieves the postponed partial results from the opposite producer, joins
   them with ``t`` and appends them to the opposite state;
4. stores newly detected MNSs in its MNS buffer and sends a suspension
   feedback to ``t``'s producer.

**As a producer** (``Handle_Feedback``), it reacts to feedback from its
downstream consumer by propagating it upstream (Section III-C) and then
performing dynamic production control (Section IV-B): suspension moves
(similar) super-tuples of the MNS from the state into a blacklist and aborts
the probe in progress if it concerns such a tuple; resumption generates
exactly the partial results that were skipped, using per-tuple watermarks,
and hands them back to the consumer.

Implementation notes (all recorded in docs/JIT.md):

* ``t`` is inserted into its own state *before* the probe.  Probe results do
  not depend on the own-side state, so REF results are unchanged, but it
  makes the watermark bookkeeping exact when a suspension arrives
  re-entrantly while the probe is still running.
* A suspended tuple records the opposite-state sequence number up to which it
  has already been joined (its *watermark*) instead of the paper's
  "suspension time"; resumption joins it with strictly newer entries only.
* Operator states delay purging while suspended work elsewhere still needs
  their contents (purge floors), and blacklists/MNS buffers are retained for
  a plan-depth-aware horizon under the EXACT retention policy.
* MNS detection for ``t`` is finalized only after resumed partial results
  have been appended, so they count as join partners.
* The MNS-buffer resumption probe (Process_Input lines 4-9) runs *before*
  the producer-side diversion check: an arrival that is about to be parked
  is still the proof that a missing partner exists, and skipping the probe
  would strand the suspended tuples upstream forever (results would be
  silently lost).  When the arrival is then diverted, the resumed partials
  are restored into the opposite state without being joined — the parked
  arrival replays later with an empty watermark and joins them exactly once.
* Indexed paths: with ``use_hash_index`` (which implies all-equi local
  conditions) neither of JIT's two linear scans is one.  Probes that need
  no MNS detection (ports fed by a source, which has no production to
  control, and every ``_join_resumed`` replay) look up the opposite state's
  index on the equi-join key.  Probes that feed the MNS detector look up,
  per component of the input, the bucket of that component's conditions and
  visit the union of the buckets in insertion order: an entry outside every
  bucket matches no component, so it can neither kill a lattice node nor
  join.
  Results, detected MNSs and suspensions are those of the nested loop;
  mid-probe suspension watermarks stay exact because unscanned entries can
  never join the in-flight tuple either.  Without ``use_hash_index`` the
  probes are nested loops, and a detecting probe first settles each
  component with equi conditions by an existence lookup in the opposite
  state's index on them, so that its scan is REF's (docs/JIT.md, "Where a
  scan starts and stops").
* ``Suspend_Production`` extracts the super-tuples of an MNS from the
  bucket of the signature's ``(source, attribute)`` template, on every plan:
  the state builds that index when an extraction first asks for it and
  retires it when none has for a window.  Only a signature without items
  scans the state.
* Watermark exceptions are decided at the pair, by the replay: an opposite
  entry the watermark covers although it entered the state after the
  suspension is asked about with :meth:`SuspendedTuple.met`, which reads
  the records both tuples were suspended under, stamped with this
  operator's moments (docs/JIT.md, "Watermark exceptions").
* The three nested-loop scans examine only what can still change their
  answer (docs/JIT.md, "Where a scan starts and stops"): a detecting probe
  evaluates per component only what no lookup settled while some alive
  lattice node contains the component, and is the detector-free loop once
  nothing is left; a regular probe
  starts at the opposite state's live cursor, behind what a purge floor
  retains; a resumed tuple's replay starts behind the order stamp recorded
  beside its watermark.  Which entries join, and in which order, is unchanged.
* Detection is gated by cost.  Step 2 feeds the detector, and step 4 runs,
  only while the port's :class:`~repro.core.detection_gate.DetectionGate` is
  open: each detecting port keeps a ledger of the units its detection spent
  (cost-model deltas across the JIT-only sections below, never across an
  ``emit``) against the units its suspensions saved (booked by the producers
  that hold them, which is why a suspension names its origin gate all the way
  up the chain).  While a gate rests the probe is the detector-free one, the
  port's buffered MNSs are cancelled at the next purge of the JIT structures,
  and what is still suspended drains through the resume paths; steps 1 and 3
  run regardless.  The state indexes that detection and extraction built
  retire once nothing has looked them up for a window
  (:mod:`repro.operators.state`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.blacklist import Blacklist, SuspendedTuple
from repro.core.config import DetectionMode, JITConfig, RetentionPolicy
from repro.core.detection_gate import DetectionGate
from repro.core.feedback import Feedback, FeedbackKind
from repro.core.mns_buffer import MNSBuffer
from repro.core.mns_detection import MNSDetector, build_detector
from repro.core.production_control import (
    SIDE_BOTH,
    SIDE_EMPTY,
    SIDE_LEFT,
    classify_signature,
    split_signature,
)
from repro.core.signature import MNSSignature
from repro.metrics import CostKind
from repro.operators.base import PORT_LEFT, PORT_RIGHT, Operator
from repro.operators.join import BinaryJoinOperator, IndexLookup, opposite_port
from repro.operators.predicates import JoinCondition, JoinPredicate
from repro.operators.state import StateEntry
from repro.streams.tuples import StreamTuple

__all__ = ["JITJoinOperator"]

#: Minimum simulated-time gap between two purges of the blacklists and MNS
#: buffers, as a fraction of the window length: purging them on every event
#: would dominate the cost model without changing results.
_JIT_PURGE_INTERVAL = 0.125

#: The kinds only an MNS detector charges: their delta across a stretch of the
#: probe loop that emits nothing is what the detector cost there.
_DETECTOR_KINDS = (CostKind.LATTICE_NODE,)

#: A port's local conditions, split for one stretch of a detecting probe: per
#: component the detector still needs an outcome for, and all the others'.
_SplitConditions = Tuple[
    Tuple[Tuple[str, Tuple[JoinCondition, ...]], ...], Tuple[JoinCondition, ...]
]


@dataclass
class _ActiveProbe:
    """Bookkeeping for the probe currently in progress (producer-side abort)."""

    tuple: StreamTuple
    port: str
    #: The probing tuple's entry in its own state (inserted before the probe).
    own: StateEntry
    #: Sequence numbers (in the probed, opposite state) of the entries this
    #: probe has already scanned.  Needed because re-inserted resumed tuples
    #: make the scan order non-monotone in sequence numbers.
    scanned_seqs: set = None  # type: ignore[assignment]
    aborted: bool = False

    def __post_init__(self) -> None:
        if self.scanned_seqs is None:
            self.scanned_seqs = set()


@dataclass
class _ProbeTally:
    """What the regular probes of one arrival port have seen so far.

    It prices the pairs a suspension hides from those probes, and an arrival
    that never reaches the operator (docs/JIT.md, "When detection pays").
    """

    arrivals: int = 0
    #: Opposite entries a nested loop would visit (those REF holds too, not
    #: the ones a purge floor retains), counted when the probes started, summed.
    offered: int = 0
    #: Entries the probes examined: all offered under a nested loop, the
    #: looked-up buckets under an index.
    visited: int = 0
    #: Results the probes emitted.
    built: int = 0


class JITJoinOperator(BinaryJoinOperator):
    """Binary sliding-window join with the full JIT feedback mechanism.

    Parameters
    ----------
    name, left_sources, right_sources, predicate, use_hash_index:
        As in :class:`~repro.operators.join.BinaryJoinOperator`.
    config:
        JIT behaviour knobs; defaults to ``JITConfig()``.
    """

    def __init__(
        self,
        name: str,
        left_sources: Iterable[str],
        right_sources: Iterable[str],
        predicate: JoinPredicate,
        config: Optional[JITConfig] = None,
        use_hash_index: bool = False,
    ) -> None:
        super().__init__(name, left_sources, right_sources, predicate, use_hash_index)
        self.config = config or JITConfig()
        #: Number of join operators on the path from this operator to the plan
        #: root, inclusive.  Set by the plan builder; used by the EXACT
        #: retention policy.
        self.depth_to_root = 1
        self.mns_buffers: Dict[str, MNSBuffer] = {}
        self.blacklists: Dict[str, Blacklist] = {}
        self.detectors: Dict[str, Optional[MNSDetector]] = {}
        self._conditions_by_source: Dict[str, Dict[str, Tuple[JoinCondition, ...]]] = {}
        #: Per input port, one opposite-state lookup per component whose
        #: conditions are all equalities: what an MNS-detecting probe settles
        #: components with (nested loop) or visits instead of the state (hash index).
        self._component_lookups: Dict[str, Dict[str, IndexLookup]] = {}
        #: Per input port, the gate that switches its MNS detection off while
        #: it costs more than it saves (a test installs a scripted one here).
        self.gates: Dict[str, DetectionGate] = {
            PORT_LEFT: DetectionGate(),
            PORT_RIGHT: DetectionGate(),
        }
        #: What each gate answered last, to count its rests and trials.
        self._detecting: Dict[str, bool] = {PORT_LEFT: True, PORT_RIGHT: True}
        #: Per arrival port, what its regular probes have seen (the ledger's prices).
        self._probed: Dict[str, _ProbeTally] = {
            PORT_LEFT: _ProbeTally(),
            PORT_RIGHT: _ProbeTally(),
        }
        self._active_probe: Optional[_ActiveProbe] = None
        #: How many blacklist records this operator has made, over both ports:
        #: the clock of ``SuspendedTuple.created`` and ``.ended``.
        self._moment = 0
        self._pending_resume: Dict[Tuple[MNSSignature, ...], List[StreamTuple]] = {}
        self._last_jit_purge = float("-inf")
        #: Statistics exposed to the experiment harness and tests.
        self.stats: Dict[str, int] = {
            "mns_detected": 0,
            "suspensions_sent": 0,
            "resumptions_sent": 0,
            "suspensions_received": 0,
            "resumptions_received": 0,
            "tuples_diverted": 0,
            "tuples_blacklisted": 0,
            "results_resumed": 0,
            "probes_aborted": 0,
            "suspensions_declined": 0,
            "detection_rests": 0,
            "detection_trials": 0,
            "detections_settled": 0,
        }

    # ------------------------------------------------------------------ wiring

    def on_attach(self) -> None:
        super().on_attach()
        context = self.require_context()
        for port in self.ports:
            side_sources = self.input_sources(port)
            conds_by_source: Dict[str, Tuple[JoinCondition, ...]] = {}
            attr_pairs: Dict[str, Tuple[Tuple[str, str], ...]] = {}
            for source in sorted(side_sources):
                conds = tuple(
                    c for c in self.local_conditions if source in (c.left.source, c.right.source)
                )
                if not conds:
                    continue
                conds_by_source[source] = conds
                attr_pairs[source] = tuple(
                    (source, (c.left if c.left.source == source else c.right).attribute)
                    for c in conds
                )
            self._conditions_by_source[port] = conds_by_source
            opposite_sources = self.input_sources(opposite_port(port))
            self._component_lookups[port] = {
                source: IndexLookup(conds, opposite_sources)
                for source, conds in conds_by_source.items()
                if all(c.is_equi for c in conds)
            }
            self.mns_buffers[port] = MNSBuffer(
                name=f"{self.name}.{port}.mns",
                context=context,
                side_sources=side_sources,
                conditions=self.local_conditions,
            )
            self.blacklists[port] = Blacklist(f"{self.name}.{port}.blacklist", context)
            self.detectors[port] = build_detector(
                self.config,
                components=tuple(conds_by_source),
                attr_pairs_by_source=attr_pairs,
                context=context,
            )

    def supports_production_control(self) -> bool:
        return True

    # ------------------------------------------------------------------ retention

    @property
    def retention_seconds(self) -> float:
        """How long suspended tuples remain able to produce results."""
        window = self.require_context().window.length
        if self.config.retention_policy == RetentionPolicy.WINDOW:
            return window
        return window * max(1, self.depth_to_root)

    def suspension_alive(self, signature: MNSSignature, now: float) -> bool:
        """True while a suspension for ``signature`` can still produce results.

        Consumers use this (through their MNS-buffer purge) to decide whether
        an MNS entry must be kept; the check recurses upstream when the
        suspension was propagated.
        """
        retains = self.require_context().window.retains
        retention = self.retention_seconds
        for port in self.ports:
            entry = self.blacklists[port].entry(signature)
            if entry is None:
                continue
            if entry.permanent:
                return False
            if retains(entry.newest(), now, retention):
                return True
            if entry.propagated_upstream:
                upstream = self.producer_of(port)
                if upstream is not None and upstream.suspension_alive(signature, now):
                    return True
        return False

    # ------------------------------------------------------------------ consumer side

    def process(self, tup: StreamTuple, port: str) -> None:
        """``Process_Input`` (Figure 6) for one input tuple."""
        self._check_port(port)
        context = self.require_context()
        now = context.now
        opp = opposite_port(port)

        self._maybe_purge_jit_structures(now)
        self._update_purge_floors()
        self.purge(now)

        # Lines 4-9: probe the opposite MNS buffer and send resumption feedback.
        # This must happen *before* the producer-side diversion check below:
        # even when ``t`` itself is about to be parked, it is still the
        # arrival that proves a missing partner exists, and suppressing the
        # resumption would strand the suspended tuples upstream forever.
        opposite_producer = self.producer_of(opp)
        resume_feedback = self._probe_mns_buffer(tup, opp)

        # Producer-side diversion: a new arrival similar to a suspended MNS is
        # parked (or dropped, for permanent suspensions) without any probing.
        cost = context.cost
        blacklist = self.blacklists[port]
        if len(blacklist):
            mark = cost.cpu_units
            entry = blacklist.match_arrival(tup)
            blacklist.book_upkeep(cost.cpu_units - mark)
            if entry is not None:
                self.stats["tuples_diverted"] += 1
                if entry.gate is not None:
                    # The probe REF runs here met every opposite entry it holds.
                    entry.gate.avoid(self._hidden_pair_units(port) * self.states[opp].live_count)
                if resume_feedback is not None:
                    # The resumed partials still belong in the opposite state.
                    # ``t`` is parked with an empty watermark, so its eventual
                    # replay joins them exactly once — emitting here would
                    # double-count.
                    self._restore_resumed(opposite_producer, resume_feedback, port)
                if not entry.permanent:
                    self._moment += 1
                    blacklist.add_suspended(
                        entry.signature, tup, joined_upto_seq=-1, now=now, created=self._moment
                    )
                return

        # Line 13 (hoisted): insert t into its own state.  Doing this before
        # the probe does not change which results are produced but makes the
        # watermarks of re-entrant suspensions exact.
        own_entry = self.insert_into_state(tup, port)

        # Line 10 (+ Identify_MNS interleaved): probe the opposite state.
        detector = self.detectors[port]
        own_producer = self.producer_of(port)
        should_detect = (
            detector is not None
            and own_producer is not None
            and own_producer.supports_production_control()
            and self._gate_open(port, now)
        )
        # The suspended tuples this probe does not meet: credit whoever hid them.
        hidden = self.blacklists[opp].hidden
        if hidden:
            pair_units = self._hidden_pair_units(port)
            for gate, count in hidden.items():
                gate.avoid(pair_units * count)
        offered = self.states[opp].live_count
        emitted = self.emitted_count
        probe = _ActiveProbe(tuple=tup, port=port, own=own_entry)
        self._active_probe = probe
        opposite_live = self._probe_opposite(
            tup, port, now, detector if should_detect else None, probe
        )
        self._active_probe = None
        tally = self._probed[port]
        tally.arrivals += 1
        tally.offered += offered
        tally.visited += len(probe.scanned_seqs)
        tally.built += self.emitted_count - emitted

        # Lines 14-17: retrieve and integrate the resumed partial results.
        if resume_feedback is not None and opposite_producer is not None:
            resumed = opposite_producer.produce_suspended(resume_feedback)
            self._integrate_resumed(
                tup, port, resumed, own_entry, detector if should_detect else None
            )

        # Lines 11-12: report newly detected MNSs and send suspension feedback.
        # Detection is finished only now so that resumed partial results count
        # as join partners (see docs/JIT.md on detection ordering), and it is
        # skipped when t itself was suspended mid-probe.
        if should_detect and not probe.aborted:
            mark = cost.cpu_units
            self._finish_detection(tup, port, now, detector, opposite_live, own_producer)
            self.gates[port].spend(cost.cpu_units - mark)

    def _gate_open(self, port: str, now: float) -> bool:
        """Ask ``port``'s gate whether to detect now; count its rests and trials."""
        is_open = self.gates[port].open_at(now, self.require_context().window.length)
        if is_open != self._detecting[port]:
            self._detecting[port] = is_open
            self.stats["detection_trials" if is_open else "detection_rests"] += 1
        return is_open

    def arrival_units(self, port: str) -> float:
        """Modelled units one more arrival on ``port`` costs from here downstream.

        Measured over the regular probes so far.  Probe work is bilinear in
        the two inputs — every examined pair holds exactly one tuple of
        ``port``, whichever side arrived later — so one arrival's share is
        the operator's whole pair work divided by the arrivals on ``port``:
        a probe step and a predicate evaluation per entry examined, and per
        result its build plus what it costs the consumer in turn.
        """
        arrivals = self._probed[port].arrivals
        if not arrivals:
            return 0.0
        visited = sum(tally.visited for tally in self._probed.values())
        built = sum(tally.built for tally in self._probed.values())
        insert = self.require_context().cost.weights.insert
        return insert + self._probe_work_units(visited, built) / arrivals

    def _probe_work_units(self, visited: int, built: int) -> float:
        """Units of ``visited`` examined entries and ``built`` results, each
        result priced at its build plus what it costs the consumer."""
        weights = self.require_context().cost.weights
        per_result = weights.result_build
        if isinstance(self.consumer, JITJoinOperator):
            per_result += self.consumer.arrival_units(self.consumer_port)
        return (weights.probe_step + weights.predicate_eval) * visited + per_result * built

    def _hidden_pair_units(self, port: str) -> float:
        """Units REF spends on one (arrival on ``port``, opposite entry) pair
        that JIT never forms because the entry is suspended or the arrival is
        diverted (docs/JIT.md, "When detection pays").

        Counted: the share of offered entries a probe examines (all of them
        under a nested loop, the bucket under an index), at a probe step and
        a predicate evaluation each.  Estimated: the results not built, at
        this port's measured results per offered entry.
        """
        tally = self._probed[port]
        if not tally.offered:
            return 0.0
        return self._probe_work_units(tally.visited, tally.built) / tally.offered

    def _probe_opposite(
        self,
        tup: StreamTuple,
        port: str,
        now: float,
        detector: Optional[MNSDetector],
        probe: _ActiveProbe,
    ) -> bool:
        """Probe the opposite state, feeding the MNS detector when one is given.

        Returns whether the opposite state held a live tuple when the probe
        started (False is the Ø case; only meaningful with a detector).

        On a nested-loop join the detector first settles what lookups answer
        (:meth:`_settle`): whether any live opposite entry matches each
        pending component with equi conditions.  A matched component's node
        dies before the scan; an unmatched one is False for every entry the
        scan visits.  The scan feeds the detector only what is left (nodes
        above level 1, non-equi components) and only while it asks to be:
        per entry, those components are evaluated in full, the others only
        while the entry can still join, and once none is left the loop is
        REF's.  Which entries are visited, which join and in which order
        does not depend on it.

        When the operator keeps hash indexes (``use_hash_index``) the scan is
        replaced by index lookups.  Without detection, one lookup on the
        equi-join key: entries with a different key can never satisfy the
        (all-equi) local conditions.  With detection, one lookup per
        component of ``tup`` on that component's conditions, and the union
        of the buckets is visited in insertion order exactly as the scan
        visits the state: an entry outside every bucket matches no
        component, so it kills no lattice node at any ``max_mns_arity`` and
        cannot join.  What is visited no longer says whether the state was
        empty, so that is asked of the state itself.
        """
        context = self.require_context()
        window = context.window
        opp = opposite_port(port)
        opposite_state = self.states[opp]
        # While a purge floor retains expired tuples, the probe sees live ones only.
        floored = opposite_state.purge_floor is not None
        horizon = window.purge_horizon(now) if floored else None
        opposite_live = False
        gate = self.gates[port]
        detector_units = context.cost.units
        #: The components whose outcome the scan computes per entry, and those
        #: settled unmatched before it.
        pending: Tuple[str, ...] = ()
        unmatched: Tuple[str, ...] = ()
        if detector is None:
            candidates: Iterable[StateEntry] = self.probe_candidates(tup, opp, horizon)
        else:
            detector.start(tup)
            if self.use_hash_index:
                opposite_live = opposite_state.has_live(horizon)
                candidates = opposite_state.probe_index(
                    [lookup.probe(tup) for lookup in self._component_lookups[port].values()]
                )
            else:
                if detector.pending:
                    unmatched = self._settle(tup, port, detector, horizon)
                candidates = opposite_state.probe(horizon)
            asked = detector.pending
            pending = tuple([c for c in asked if c not in unmatched])
        if pending:
            conditions = self._split_conditions(port, pending)
            outcomes: Dict[str, bool] = dict.fromkeys(unmatched, False)
            mark = detector_units(_DETECTOR_KINDS)
        for entry in candidates:
            if entry.removed:
                continue
            if floored and entry.ts < horizon:
                continue
            other = entry.tuple
            probe.scanned_seqs.add(entry.seq)
            opposite_live = True
            joins = window.joins(tup, other)
            if pending:
                # Detection-integrated evaluation: per-component match outcomes.
                joins = self._match_components(tup, other, conditions, outcomes, joins)
                detector.observe(tup, outcomes)
                if detector.pending != asked:
                    asked = detector.pending
                    pending = tuple([c for c in asked if c not in unmatched])
                    conditions = self._split_conditions(port, pending)
                    if not asked:
                        self.stats["detections_settled"] += 1
                if joins or not pending:
                    # An emission runs the plan downstream, and a detector with
                    # no node left alive has left the probe: close the delta.
                    gate.spend(detector_units(_DETECTOR_KINDS) - mark)
            elif joins:
                # REF-style short-circuit evaluation.
                joins = self.evaluate_conditions(tup, other)
            if joins:
                self.emit(self.build_result(tup, other))
                if pending:
                    mark = detector_units(_DETECTOR_KINDS)
                if probe.aborted:
                    self.stats["probes_aborted"] += 1
                    break
        if pending:
            gate.spend(detector_units(_DETECTOR_KINDS) - mark)
        return opposite_live

    def _settle(
        self,
        tup: StreamTuple,
        port: str,
        detector: MNSDetector,
        horizon: Optional[float],
    ) -> Tuple[str, ...]:
        """Settle ``detector``'s pending components from the opposite state's
        indexes before a nested-loop probe; return those found unmatched.

        A lookup asks :meth:`OperatorState.any_live` of the component's
        index, so it sees what the scan would: the present entries, live
        ones only while a purge floor is set.  Its units are the port's
        detection spend.
        """
        lookups = self._component_lookups[port]
        opposite_state = self.states[opposite_port(port)]

        def matched(component: str) -> Optional[bool]:
            lookup = lookups.get(component)
            if lookup is None:
                return None
            return opposite_state.any_live(*lookup.probe(tup), horizon)

        cost = self.require_context().cost
        mark = cost.cpu_units
        unmatched = detector.settle(tup, matched)
        self.gates[port].spend(cost.cpu_units - mark)
        if not detector.pending:
            self.stats["detections_settled"] += 1
        return unmatched

    def _split_conditions(self, port: str, pending: Sequence[str]) -> _SplitConditions:
        """``port``'s local conditions, split around the ``pending`` components."""
        by_source = self._conditions_by_source[port]
        return (
            tuple([(source, by_source[source]) for source in pending]),
            tuple(
                [
                    cond
                    for source, conds in by_source.items()
                    if source not in pending
                    for cond in conds
                ]
            ),
        )

    def _match_components(
        self,
        tup: StreamTuple,
        other: StreamTuple,
        conditions: _SplitConditions,
        outcomes: Dict[str, bool],
        joins: bool,
    ) -> bool:
        """Evaluate the local conditions over a pair, component by component.

        Every pending component gets its outcome written to ``outcomes``
        whatever the others came to (its own conditions short-circuit among
        themselves).  The rest, the conditions of the components no alive
        lattice node contains, are evaluated only while the pair can still
        join (``joins``: inside the window, nothing failed so far) — REF's
        short-circuit.  Returns whether the pair joins; one
        ``PREDICATE_EVAL`` per condition evaluated.
        """
        pending, rest = conditions
        evaluated = 0
        for source, conds in pending:
            matched = True
            for cond in conds:
                evaluated += 1
                if not cond.evaluate(tup, other):
                    matched = joins = False
                    break
            outcomes[source] = matched
        if joins:
            for cond in rest:
                evaluated += 1
                if not cond.evaluate(tup, other):
                    joins = False
                    break
        if evaluated:
            self.require_context().cost.charge(CostKind.PREDICATE_EVAL, evaluated)
        return joins

    def _integrate_resumed(
        self,
        tup: StreamTuple,
        port: str,
        resumed: Sequence[StreamTuple],
        own_entry: StateEntry,
        detector: Optional[MNSDetector],
    ) -> None:
        """Join ``tup`` with resumed partial results and append them to the state.

        Each partial is inserted into the opposite state *before* the result
        is emitted, so any suspension triggered by that emission computes a
        watermark that already covers the partial.
        """
        window = self.require_context().window
        opposite_state = self.states[opposite_port(port)]
        pending: Tuple[str, ...] = () if detector is None else detector.pending
        conditions = self._split_conditions(port, pending)
        outcomes: Dict[str, bool] = {}
        for partial in resumed:
            joins = self._match_components(
                tup, partial, conditions, outcomes, window.joins(tup, partial)
            )
            if pending:
                detector.observe(tup, outcomes)
                if detector.pending != pending:
                    pending = detector.pending
                    conditions = self._split_conditions(port, pending)
            partial_entry = opposite_state.insert(partial)
            if joins and not own_entry.removed and not partial_entry.removed:
                self.emit(self.build_result(tup, partial))
                self.stats["results_resumed"] += 1

    def _finish_detection(
        self,
        tup: StreamTuple,
        port: str,
        now: float,
        detector: Optional[MNSDetector],
        opposite_live: bool,
        own_producer: Operator,
    ) -> None:
        """Collect detected MNSs, buffer them and send suspension feedback."""
        context = self.require_context()
        opp = opposite_port(port)
        opposite_state = self.states[opp]
        # The probe only sees entries at or above the live horizon while a
        # purge floor retains expired tuples, so the Ø test must ask for
        # *live* emptiness — retained-but-expired tuples do not count.
        live_after = (
            context.window.purge_horizon(now) if opposite_state.purge_floor is not None else None
        )
        signatures: List[MNSSignature]
        if not opposite_live and not opposite_state.has_live(live_after):
            # Figure 8, line 2: the opposite state is empty, Ø is the only MNS.
            signatures = [MNSSignature.empty(ts=tup.ts)]
        elif detector is not None:
            signatures = detector.finish(tup)
        else:
            signatures = []
        if not signatures:
            return
        new_signatures: List[MNSSignature] = []
        buffer = self.mns_buffers[port]
        opposite_buffer = self.mns_buffers[opp]
        for signature in signatures:
            if signature in buffer:
                continue
            self.stats["mns_detected"] += 1
            # Cycle prevention: never suspend an MNS whose missing partner may
            # itself be hidden behind a suspension on the opposite input (or
            # that could hide the partner of such a suspension).  See
            # MNSBuffer.blocks_suspension and docs/JIT.md.
            if len(opposite_buffer):
                items_map = {(s, a): v for s, a, v in signature.items}
                partner_map = buffer.partner_map(signature)
                if opposite_buffer.blocks_suspension(items_map, partner_map):
                    self.stats["suspensions_declined"] += 1
                    continue
            buffer.add(signature, now)
            new_signatures.append(signature)
        if not new_signatures:
            return
        self._send_feedback(
            own_producer, Feedback.suspend(tuple(new_signatures), origin=self.gates[port])
        )

    # ------------------------------------------------------------------ feedback plumbing

    def _probe_mns_buffer(self, tup: StreamTuple, opp: str) -> Optional[Feedback]:
        """Process_Input lines 4-9: match ``tup`` against the opposite MNS
        buffer and send one resumption for everything it matched.

        Matched entries are removed from the buffer *before* the feedback is
        sent, so re-entrant arrivals produced by the resumption cannot
        trigger it again.  Returns the sent feedback (to pass to
        :meth:`Operator.produce_suspended`), or None when nothing matched.
        """
        opposite_producer = self.producer_of(opp)
        if not len(self.mns_buffers[opp]) or opposite_producer is None:
            return None
        cost = self.require_context().cost
        mark = cost.cpu_units
        feedback = self._resume_matched(tup, opp, opposite_producer)
        self.gates[opp].spend(cost.cpu_units - mark)
        return feedback

    def _resume_matched(
        self, tup: StreamTuple, opp: str, opposite_producer: Operator
    ) -> Optional[Feedback]:
        matched = self.mns_buffers[opp].match(tup)
        if not matched or not opposite_producer.supports_production_control():
            return None
        signatures = []
        for entry in matched:
            self.mns_buffers[opp].remove(entry.signature)
            signatures.append(entry.signature)
        feedback = Feedback.resume(tuple(signatures))
        self._send_feedback(opposite_producer, feedback)
        return feedback

    def _send_feedback(self, target: Operator, feedback: Feedback) -> None:
        """Send ``feedback`` to ``target``, with cost and per-signature stats.

        Sent counters are incremented once per MNS signature — the same
        granularity :meth:`handle_feedback` uses for the received counters —
        so a loopback over any chain of JIT operators satisfies
        ``sent == received`` for both suspensions and resumptions.
        """
        context = self.require_context()
        context.cost.charge(CostKind.FEEDBACK_MESSAGE)
        if feedback.kind == FeedbackKind.SUSPEND:
            self.stats["suspensions_sent"] += len(feedback.signatures)
        elif feedback.kind == FeedbackKind.RESUME:
            self.stats["resumptions_sent"] += len(feedback.signatures)
        target.handle_feedback(feedback, self)

    def _restore_resumed(self, producer: Operator, resume_feedback: Feedback, port: str) -> None:
        """Append resumed partials to the opposite state without joining them.

        Used when the triggering arrival was itself diverted: its blacklist
        replay will join the partials later, so they only need to be restored
        into the state here.
        """
        opposite_state = self.states[opposite_port(port)]
        for partial in producer.produce_suspended(resume_feedback):
            opposite_state.insert(partial)

    # ------------------------------------------------------------------ producer side

    def handle_feedback(self, feedback: Feedback, from_consumer: Operator) -> None:
        """``Handle_Feedback`` (Figure 6): propagate, then adjust production."""
        context = self.require_context()
        now = context.now
        context.notify_feedback(self, from_consumer, feedback.kind, feedback)
        for single in feedback.split():
            signature = single.single()
            if single.kind == FeedbackKind.SUSPEND:
                self.stats["suspensions_received"] += 1
                self._suspend_production(
                    signature, now, permanent=single.permanent, gate=single.origin
                )
            elif single.kind == FeedbackKind.RESUME:
                self.stats["resumptions_received"] += 1
                results = self._resume_production(signature)
                self._pending_resume.setdefault(feedback.signatures, []).extend(results)
            elif single.kind in (FeedbackKind.MARK, FeedbackKind.UNMARK):
                # Type II mark/unmark handling is optional (Section IV-B); the
                # default configuration does not emit these messages and a
                # producer is always allowed to ignore them.
                continue

    def produce_suspended(self, feedback: Feedback) -> List[StreamTuple]:
        """Return the partial results prepared for ``feedback`` by the last resume."""
        return self._pending_resume.pop(feedback.signatures, [])

    # -- suspension ---------------------------------------------------------------

    def _suspend_production(
        self,
        signature: MNSSignature,
        now: float,
        permanent: bool = False,
        gate: Optional[DetectionGate] = None,
    ) -> None:
        side = classify_signature(signature, self.left_sources, self.right_sources)
        if side == SIDE_EMPTY:
            self._suspend_all(signature, now, gate)
            return
        if side == SIDE_BOTH:
            # Type II MNS: only acted upon when enabled.  Declining to act is
            # always legal and is the default (Section IV-B's flexibility).
            if not self.config.handle_type2:
                return
            left_part, right_part = split_signature(
                signature, self.left_sources, self.right_sources
            )
            for part, part_port in ((left_part, PORT_LEFT), (right_part, PORT_RIGHT)):
                if part is not None:
                    self._propagate(Feedback.mark((part,)), part_port)
            return
        port = PORT_LEFT if side == SIDE_LEFT else PORT_RIGHT
        blacklist = self.blacklists[port]
        entry = blacklist.ensure_entry(signature, now, permanent=permanent, gate=gate)

        # Propagate before handling (Section III-C rule (i)).
        if not permanent:
            upstream = self.producer_of(port)
            if upstream is not None and upstream.supports_production_control():
                self._propagate(Feedback.suspend((signature,), origin=entry.gate), port)
                entry.propagated_upstream = True

        # Move (similar) super-tuples of the MNS from the state to the blacklist.
        state = self.states[port]
        opposite_state = self.states[opposite_port(port)]
        default_watermark = opposite_state.next_seq - 1
        default_order = opposite_state.last_order
        probe = self._active_probe
        # The super-tuples sit in the bucket of the signature's (source,
        # attribute) template; a coverage-only signature has no such template
        # and keeps the scan.
        lookup = (signature.template, signature.key) if signature.items else None
        extracted = state.extract(signature.matches_super, lookup)
        for removed in extracted:
            self.stats["tuples_blacklisted"] += 1
            # The watermark twice: as a sequence number, and as the order
            # stamp of the last opposite entry it covers.
            watermark, upto_order = default_watermark, default_order
            met_seqs: frozenset = frozenset()
            if probe is not None and not probe.aborted:
                if probe.port == port and removed.tuple is probe.tuple:
                    # The tuple being probed right now: it has only met the
                    # opposite entries the probe already scanned.
                    watermark = upto_order = -1
                    met_seqs = frozenset(probe.scanned_seqs)
                    probe.aborted = True
                elif probe.port == opposite_port(port):
                    # An opposite-side entry extracted while a probe scans its
                    # state: it has met the in-flight tuple only if the probe
                    # already scanned it.  Whatever entered that state before
                    # the in-flight tuple has a lower sequence number.
                    behind = 0 if removed.seq in probe.scanned_seqs else 1
                    watermark = probe.own.seq - behind
                    upto_order = probe.own.order - behind
            self._moment += 1
            blacklist.add_suspended(
                signature,
                removed.tuple,
                joined_upto_seq=watermark,
                now=now,
                permanent=permanent,
                original_seq=removed.seq,
                met_seqs=met_seqs,
                joined_upto_order=upto_order,
                created=self._moment,
                previous=removed.came_from,
            )

    def _suspend_all(
        self, signature: MNSSignature, now: float, gate: Optional[DetectionGate] = None
    ) -> None:
        """Ø suspension: park every new input until resumption; under Ø-only
        detection (DOE's cascading suspension) every upstream producer parks
        its own as well."""
        for port in self.ports:
            self.blacklists[port].ensure_entry(signature, now, gate=gate)
        if self.config.detection_mode == DetectionMode.EMPTY_ONLY:
            for port in self.ports:
                upstream = self.producer_of(port)
                if upstream is not None and upstream.supports_production_control():
                    self._propagate(Feedback.suspend((signature,), origin=gate), port)
                    entry = self.blacklists[port].entry(signature)
                    if entry is not None:
                        entry.propagated_upstream = True

    def _propagate(self, feedback: Feedback, port: str) -> None:
        upstream = self.producer_of(port)
        if upstream is None or not upstream.supports_production_control():
            return
        self._send_feedback(upstream, feedback)

    # -- resumption ----------------------------------------------------------------

    def _resume_production(self, signature: MNSSignature) -> List[StreamTuple]:
        side = classify_signature(signature, self.left_sources, self.right_sources)
        if side == SIDE_EMPTY:
            return self._resume_all(signature)
        if side == SIDE_BOTH:
            return []
        port = PORT_LEFT if side == SIDE_LEFT else PORT_RIGHT
        return self._resume_port(signature, port)

    def _resume_port(self, signature: MNSSignature, port: str) -> List[StreamTuple]:
        """Produce the super-tuples of ``signature`` that were suppressed on ``port``."""
        blacklist = self.blacklists[port]
        entry = blacklist.pop_entry(signature)
        results: List[StreamTuple] = []

        # Rule (i) of Section III-C: propagate before handling.  Upstream
        # returns the partial results it had suppressed; they are new inputs
        # for this operator's ``port`` side.
        upstream_new: List[StreamTuple] = []
        if entry is not None and entry.propagated_upstream:
            upstream = self.producer_of(port)
            if upstream is not None and upstream.supports_production_control():
                resume = Feedback.resume((signature,))
                self._send_feedback(upstream, resume)
                upstream_new = upstream.produce_suspended(resume)

        if entry is not None:
            for suspended in entry.suspended:
                results.extend(self._join_resumed(suspended.tuple, port, suspended))
        for partial in upstream_new:
            results.extend(self._join_resumed(partial, port))
        return results

    def _resume_all(self, signature: MNSSignature) -> List[StreamTuple]:
        """Resume a Ø suspension by replaying the buffered inputs in order."""
        results: List[StreamTuple] = []
        for port in (PORT_LEFT, PORT_RIGHT):
            blacklist = self.blacklists[port]
            entry = blacklist.pop_entry(signature)
            upstream_new: List[StreamTuple] = []
            if entry is not None and entry.propagated_upstream:
                upstream = self.producer_of(port)
                if upstream is not None and upstream.supports_production_control():
                    resume = Feedback.resume((signature,))
                    self._send_feedback(upstream, resume)
                    upstream_new = upstream.produce_suspended(resume)
            backlog: List[Tuple[float, object]] = []
            if entry is not None:
                backlog.extend((s.tuple.ts, s) for s in entry.suspended)
            backlog.extend((t.ts, t) for t in upstream_new)
            backlog.sort(key=lambda item: item[0])
            for _ts, item in backlog:
                if isinstance(item, SuspendedTuple):
                    results.extend(self._join_resumed(item.tuple, port, item))
                else:
                    results.extend(self._join_resumed(item, port))
        return results

    def _join_resumed(
        self,
        tup: StreamTuple,
        port: str,
        record: Optional[SuspendedTuple] = None,
    ) -> List[StreamTuple]:
        """Join a resumed tuple with the opposite-state partners it has not met.

        ``record`` is the tuple's blacklist record; without one (a partial
        resumed upstream) the tuple has met nothing.  The scan starts behind
        ``record.joined_upto_order``, the last opposite entry the watermark
        covered when the tuple was suspended: everything up to it was in the
        state then and would be skipped by the watermark below.  An entry
        behind it that the watermark covers was re-inserted since, under its
        old sequence number but a fresh order stamp, from a suspension of its
        own; whether the two met is the record's pair test
        (:meth:`SuspendedTuple.met`, docs/JIT.md, "Watermark exceptions").

        The tuple is re-inserted into its own state afterwards — under its
        original sequence number when it had one — so later arrivals and
        later resumptions on the other side treat it consistently; the new
        entry remembers ``record`` and the record the moment it ended.

        With ``use_hash_index`` the partner scan becomes an index lookup on
        the equi-join key, combined with the same filters as the nested
        loop; entries with a different key would fail the equi conditions
        anyway, so skipping them is REF-equivalent.

        Like a fresh arrival, the replayed tuple first probes the opposite
        MNS buffer (Process_Input lines 4-9): re-entering the state makes it
        the missing partner of any suspension it matches, and skipping the
        probe would strand those suspended tuples upstream forever.  Partials
        pulled by such a resumption are inserted *before* the partner scan —
        their fresh sequence numbers pass the watermark filters, so the
        replayed tuple joins them exactly once during the scan.
        """
        context = self.require_context()
        window = context.window
        opp = opposite_port(port)
        resume_feedback = self._probe_mns_buffer(tup, opp)
        if resume_feedback is not None:
            self._restore_resumed(self.producer_of(opp), resume_feedback, port)
        watermark = upto_order = -1
        met_seqs: FrozenSet[int] = frozenset()
        if record is not None:
            watermark, upto_order = record.joined_upto_seq, record.joined_upto_order
            met_seqs = record.met_seqs
        produced: List[StreamTuple] = []
        for entry in self.probe_candidates(tup, opp, after_order=upto_order):
            if entry.removed or entry.seq in met_seqs:
                continue
            # An index lookup returns entries at or before the stamp too.
            if entry.seq <= watermark and (
                entry.order <= upto_order or record.met(entry.seq, entry.came_from, context.cost)
            ):
                continue
            if not window.joins(tup, entry.tuple):
                continue
            if self.evaluate_conditions(tup, entry.tuple):
                produced.append(self.build_result(tup, entry.tuple))
        if record is None:
            self.states[port].insert(tup)
        else:
            self.states[port].insert(tup, seq=record.original_seq).came_from = record
            record.ended = self._moment
        return produced

    # ------------------------------------------------------------------ maintenance

    def _update_purge_floors(self) -> None:
        """Recompute the delayed-purge floors from suspended work on each side."""
        window = self.require_context().window
        for port in self.ports:
            opp = opposite_port(port)
            candidates: List[float] = []
            blacklist_min = self.blacklists[opp].min_live_ts()
            if blacklist_min is not None:
                candidates.append(blacklist_min)
            buffer_min = self.mns_buffers[opp].min_active_ts()
            if buffer_min is not None:
                candidates.append(buffer_min)
            self.states[port].purge_floor = (
                window.purge_horizon(min(candidates)) if candidates else None
            )

    def _maybe_purge_jit_structures(self, now: float) -> None:
        """Periodically purge blacklists and MNS buffers (cheaply, not per event).

        Dropping an MNS entry is performed as a *cancellation resume*: the
        producer is asked to resume the signature so that its blacklist entry
        disappears together with the consumer-side MNS.  Otherwise the
        producer could keep diverting new similar arrivals for a signature
        whose resumption trigger no longer exists, silently losing results.
        Any partial results the cancellation returns are appended to the
        corresponding state (they need no trigger join: a matching partner
        would have resumed the signature earlier).  That argument does not
        need the suspension to be dead, and while the port's detection gate
        rests every buffered MNS is dropped this way, live or not.
        """
        context = self.require_context()
        interval = context.window.length * _JIT_PURGE_INTERVAL
        if now - self._last_jit_purge < interval:
            return
        self._last_jit_purge = now
        retention = self.retention_seconds
        cost = context.cost
        for port in self.ports:
            self.blacklists[port].purge(now, retention)
            producer = self.producer_of(port)
            if producer is None or not len(self.mns_buffers[port]):
                continue
            mark = cost.cpu_units
            if self._detecting[port]:
                dead = self.mns_buffers[port].purge(
                    lambda sig, _p=producer: _p.suspension_alive(sig, now)
                )
            else:
                # The port's gate rests: its suspensions were judged not worth
                # their upkeep, so all of them are handed back now.
                dead = self.mns_buffers[port].purge(lambda sig: False)
            for entry in dead:
                if not producer.supports_production_control():
                    continue
                cancel = Feedback.resume((entry.signature,))
                self._send_feedback(producer, cancel)
                for partial in producer.produce_suspended(cancel):
                    self.states[port].insert(partial)
            self.gates[port].spend(cost.cpu_units - mark)

    # ------------------------------------------------------------------ diagnostics

    @property
    def suspended_counts(self) -> Tuple[int, int]:
        """Number of suspended tuples on the (left, right) blacklists."""
        return (
            self.blacklists[PORT_LEFT].suspended_count,
            self.blacklists[PORT_RIGHT].suspended_count,
        )
