"""The JIT-enabled binary window join (Figure 6 of the paper).

:class:`JITJoinOperator` extends the REF join of
:mod:`repro.operators.join` with both halves of the JIT feedback mechanism:

**As a consumer** (``Process_Input``), for every input tuple ``t`` it

1. probes ``t`` against the MNS buffer of the *opposite* port and, on a hit,
   sends a resumption feedback to the opposite producer, which returns the
   postponed partial results;
2. probes ``t`` against the opposite operator state, emitting join results,
   after the configured MNS detector has settled what index lookups can
   answer, and feeding it the rest per entry (the paper's "combined with a
   nested loop join" of Section IV-A);
3. joins the partial results step 1 returned with ``t`` and appends them to
   the opposite state;
4. stores newly detected MNSs in its MNS buffer and sends a suspension
   feedback to ``t``'s producer.

**As a producer** (``Handle_Feedback``), it reacts to feedback from its
downstream consumer by propagating it upstream (Section III-C) and then
performing dynamic production control (Section IV-B): suspension moves
(similar) super-tuples of the MNS from the state into a blacklist and aborts
the probe in progress if it concerns such a tuple; resumption generates
exactly the partial results that were skipped, using per-tuple watermarks,
and returns them to the consumer as the answer to its feedback call.

Implementation notes (all recorded in docs/JIT.md):

* ``t`` is inserted into its own state *before* the probe.  Probe results do
  not depend on the own-side state, so REF results are unchanged, but it
  makes the watermark bookkeeping exact when a suspension arrives
  re-entrantly while the probe is still running.
* A suspended tuple records the opposite-state sequence number up to which it
  has already been joined (its *watermark*) instead of the paper's
  "suspension time"; resumption joins it with strictly newer entries only.
* Operator states purge at the window's horizon whatever is suspended: a
  replay yields only results that contain the arrival resuming it, so no
  entry below that arrival's horizon can be in one (docs/JIT.md, "Why
  nothing past the horizon can join a replay").  Blacklists/MNS buffers are
  retained for a plan-depth-aware horizon under the EXACT retention policy.
* MNS detection for ``t`` is finalized only after resumed partial results
  have been appended, so they count as join partners.
* The MNS-buffer resumption probe (Process_Input lines 4-9) runs *before*
  the producer-side diversion check: an arrival that is about to be parked
  is still the proof that a missing partner exists, and skipping the probe
  would strand the suspended tuples upstream forever (results would be
  silently lost).  When the arrival is then diverted, the resumed partials
  are restored into the opposite state without being joined — the parked
  arrival replays later with an empty watermark and joins them exactly once.
* Indexed paths: with ``use_hash_index`` neither of JIT's two linear scans
  is one.  Probes that need no MNS detection (ports fed by a source, which
  has no production to control, and every ``_join_resumed`` replay) look up
  the opposite state's index on the equi-join key.  Probes that feed the MNS detector look up,
  per component of the input, the bucket of that component's conditions and
  visit the union of the buckets in insertion order: an entry outside every
  bucket matches no component, so it can neither kill a lattice node nor
  join.
  Results, detected MNSs and suspensions are those of the nested loop;
  mid-probe suspension watermarks stay exact because unscanned entries can
  never join the in-flight tuple either.  Without ``use_hash_index`` the
  probes are nested loops, and a detecting probe first settles each
  component by an existence lookup in the opposite state's index on its
  conditions, so that its scan is REF's, or does not run when a component
  has no partner and so nothing joins; a replay looks its components up the
  same way before it scans (docs/JIT.md, "Where a scan starts and stops").
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
* The nested-loop scans examine only what can still change their answer
  (docs/JIT.md, "Where a scan starts and stops"): a detecting probe
  evaluates per component only what no lookup settled while some alive
  lattice node contains the component, and is the detector-free loop once
  nothing is left; with a component settled unmatched it scans only while
  some alive node lies apart from every such component, and never tests a
  join.  A resumed tuple's replay starts behind the order stamp recorded
  beside its watermark, and runs only if each of its components has a
  present partner.  Which entries join, and in which order, is unchanged.
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
    #: Entries present at the start that the scan did not visit because
    #: settling found a component unmatched, so that none of them joins.
    skipped: int = 0
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
    #: Opposite entries a nested loop would visit, counted when the probes
    #: started, summed.
    offered: int = 0
    #: Entries the probes examined: all offered under a nested loop, the
    #: looked-up buckets under an index.  A nested-loop probe that skips its
    #: scan because a component has no partner counts the entries it
    #: skipped too: REF's scan visits them, and this prices REF's pair.
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
        #: components with (nested loop) or visits instead of the state (hash
        #: index), and what a nested-loop replay asks for partners first.
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
        self.purge(now)

        # Lines 4-9: probe the opposite MNS buffer and send resumption feedback.
        # This must happen *before* the producer-side diversion check below:
        # even when ``t`` itself is about to be parked, it is still the
        # arrival that proves a missing partner exists, and suppressing the
        # resumption would strand the suspended tuples upstream forever.
        resumed = self._probe_mns_buffer(tup, opp)

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
                    entry.gate.avoid(self._hidden_pair_units(port) * len(self.states[opp]))
                # The resumed partials still belong in the opposite state.
                # ``t`` is parked with an empty watermark, so its eventual
                # replay joins them exactly once — emitting here would
                # double-count.
                for partial in resumed:
                    self.states[opp].insert(partial)
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
        offered = len(self.states[opp])
        emitted = self.emitted_count
        probe = _ActiveProbe(tuple=tup, port=port, own=own_entry)
        self._active_probe = probe
        opposite_live = self._probe_opposite(
            tup, port, detector if should_detect else None, probe
        )
        self._active_probe = None
        tally = self._probed[port]
        tally.arrivals += 1
        tally.offered += offered
        tally.visited += len(probe.scanned_seqs) + probe.skipped
        tally.built += self.emitted_count - emitted
        if probe.skipped:
            # The settling lookups spared REF's scan of these entries.
            self.gates[port].avoid(self._hidden_pair_units(port) * probe.skipped)

        # Lines 14-17: integrate the resumed partial results.
        if resumed:
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
        detector: Optional[MNSDetector],
        probe: _ActiveProbe,
    ) -> bool:
        """Probe the opposite state, feeding the MNS detector when one is given.

        Returns whether the opposite state held a live tuple when the probe
        started (False is the Ø case; only meaningful with a detector).

        On a nested-loop join the detector first settles what lookups answer
        (:meth:`_settle`): whether any live opposite entry matches each
        pending component.  A matched component's node dies before the scan;
        an unmatched one is False for every entry, so no entry joins.  The
        scan feeds the detector only what is left (nodes above level 1) and
        only while it asks to be: per entry, those components are evaluated
        in full, the others only while the entry can still join, and once
        none is left the loop is REF's.  With a component unmatched the scan
        runs only while an alive node lies apart from the unmatched
        components (:meth:`MNSDetector.scan_pending`), and not at all under
        ``max_mns_arity`` 1; the entries it leaves go to ``probe.skipped``.
        Which entries join and in which order does not depend on it.

        When the operator keeps hash indexes (``use_hash_index``) the scan is
        replaced by index lookups.  Without detection, one lookup on the
        equi-join key: entries with a different key can never satisfy the
        local conditions.  With detection, one lookup per component of
        ``tup`` on that component's conditions, and the union
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
        opposite_live = False
        gate = self.gates[port]
        detector_units = context.cost.units
        #: The components whose outcome the scan computes per entry, and those
        #: settled unmatched before it.
        pending: Tuple[str, ...] = ()
        unmatched: Tuple[str, ...] = ()
        if detector is None:
            candidates: Iterable[StateEntry] = self.probe_candidates(tup, opp)
        else:
            detector.start(tup)
            if self.use_hash_index:
                opposite_live = bool(len(opposite_state))
                candidates = opposite_state.probe_index(
                    [lookup.probe(tup) for lookup in self._component_lookups[port].values()]
                )
            else:
                if detector.pending:
                    unmatched = self._settle(tup, port, detector)
                candidates = opposite_state.probe()
            asked = detector.pending
            pending = detector.scan_pending(unmatched)
            if unmatched and not pending:
                # No entry joins, and none can kill a node: REF's scan is spared.
                candidates = ()
        if pending:
            conditions = self._split_conditions(port, pending)
            outcomes: Dict[str, bool] = dict.fromkeys(unmatched, False)
            mark = detector_units(_DETECTOR_KINDS)
        for entry in candidates:
            if entry.removed:
                continue
            other = entry.tuple
            probe.scanned_seqs.add(entry.seq)
            opposite_live = True
            joins = not unmatched and window.joins(tup, other)
            if pending:
                # Detection-integrated evaluation: per-component match outcomes.
                joins = self._match_components(tup, other, conditions, outcomes, joins)
                detector.observe(tup, outcomes)
                # A node that dies can leave ``asked`` as it was, and whether
                # any node is left that the scan can kill depends on which.
                if detector.pending != asked or unmatched:
                    asked = detector.pending
                    if not asked:
                        self.stats["detections_settled"] += 1
                    scanned = detector.scan_pending(unmatched)
                    if scanned != pending:
                        pending = scanned
                        conditions = self._split_conditions(port, pending)
                if joins or not pending:
                    # An emission runs the plan downstream, and a detector with
                    # no node left to kill has left the probe: close the delta.
                    gate.spend(detector_units(_DETECTOR_KINDS) - mark)
                    if unmatched and not pending:
                        break
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
        if unmatched:
            opposite_live = bool(len(opposite_state))
            probe.skipped = len(opposite_state) - len(probe.scanned_seqs)
        return opposite_live

    def _settle(
        self, tup: StreamTuple, port: str, detector: MNSDetector
    ) -> Tuple[str, ...]:
        """Settle ``detector``'s pending components from the opposite state's
        indexes before a nested-loop probe; return those found unmatched.

        A lookup asks :meth:`OperatorState.any_live` of the component's
        index, so it sees what the scan would: the present entries.  Its
        units are the port's detection spend.
        """
        lookups = self._component_lookups[port]
        opposite_state = self.states[opposite_port(port)]

        def matched(component: str) -> Optional[bool]:
            lookup = lookups.get(component)
            if lookup is None:
                return None
            return opposite_state.any_live(*lookup.probe(tup))

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
        own_producer: "JITJoinOperator",
    ) -> None:
        """Collect detected MNSs, buffer them and send suspension feedback."""
        opp = opposite_port(port)
        signatures: List[MNSSignature]
        if not opposite_live and not len(self.states[opp]):
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

    def _probe_mns_buffer(self, tup: StreamTuple, opp: str) -> List[StreamTuple]:
        """Process_Input lines 4-9: match ``tup`` against the opposite MNS
        buffer and send one resumption for everything it matched.

        Matched entries are removed from the buffer *before* the feedback is
        sent, so re-entrant arrivals produced by the resumption cannot
        trigger it again.  Returns the partial results the resumption handed
        back (none when nothing matched).  A buffer holds MNSs only on a port
        whose producer controls production (:meth:`_finish_detection`).
        """
        buffer = self.mns_buffers[opp]
        if not len(buffer):
            return []
        cost = self.require_context().cost
        mark = cost.cpu_units
        resumed: List[StreamTuple] = []
        signatures = [entry.signature for entry in buffer.match(tup)]
        if signatures:
            for signature in signatures:
                buffer.remove(signature)
            resumed = self._send_feedback(self.producer_of(opp), Feedback.resume(signatures))
        self.gates[opp].spend(cost.cpu_units - mark)
        return resumed

    def _send_feedback(self, target: "JITJoinOperator", feedback: Feedback) -> List[StreamTuple]:
        """Send ``feedback`` to ``target``, with cost and per-signature stats;
        return what ``target`` answered (the partials of a resumption).

        Sent counters are incremented once per MNS signature — the same
        granularity :meth:`handle_feedback` uses for the received counters —
        so a loopback over any chain of JIT operators satisfies
        ``sent == received`` for both suspensions and resumptions.
        """
        context = self.require_context()
        context.cost.charge(CostKind.FEEDBACK_MESSAGE)
        if feedback.kind == FeedbackKind.SUSPEND:
            self.stats["suspensions_sent"] += len(feedback.signatures)
        else:
            self.stats["resumptions_sent"] += len(feedback.signatures)
        return target.handle_feedback(feedback, self)

    # ------------------------------------------------------------------ producer side

    def handle_feedback(self, feedback: Feedback, from_consumer: Operator) -> List[StreamTuple]:
        """``Handle_Feedback`` (Figure 6): propagate, then adjust production.

        Returns the partial results a resumption produced, in replay order
        (none for a suspension).
        """
        context = self.require_context()
        now = context.now
        context.notify_feedback(self, from_consumer, feedback.kind, feedback)
        resumed: List[StreamTuple] = []
        for signature in feedback.signatures:
            if feedback.kind == FeedbackKind.SUSPEND:
                self.stats["suspensions_received"] += 1
                self._suspend_production(
                    signature, now, permanent=feedback.permanent, gate=feedback.origin
                )
            else:
                self.stats["resumptions_received"] += 1
                resumed.extend(self._resume_production(signature))
        return resumed

    def _ports_of(self, signature: MNSSignature) -> Tuple[str, ...]:
        """The input ports an MNS concerns (Section IV-B): both for Ø, the one
        its components come from for Type I, none for Type II, which spans
        both inputs and is ignored.

        Raises ``ValueError`` for a signature covering sources outside both
        inputs: the feedback was routed to the wrong producer.
        """
        covered = signature.source_set
        if not covered:
            return self.ports
        unknown = covered - self.output_sources()
        if unknown:
            raise ValueError(
                f"signature {signature} covers sources {sorted(unknown)} outside "
                f"{self.name}'s inputs {sorted(self.left_sources)} / {sorted(self.right_sources)}"
            )
        ports = tuple(port for port in self.ports if covered & self.input_sources(port))
        return ports if len(ports) == 1 else ()

    # -- suspension ---------------------------------------------------------------

    def _suspend_production(
        self,
        signature: MNSSignature,
        now: float,
        permanent: bool = False,
        gate: Optional[DetectionGate] = None,
    ) -> None:
        if signature.is_empty:
            self._suspend_all(signature, now, gate)
            return
        ports = self._ports_of(signature)
        if not ports:
            # Type II MNS: declining to act is always legal (Section IV-B).
            return
        (port,) = ports
        blacklist = self.blacklists[port]
        entry = blacklist.ensure_entry(signature, now, permanent=permanent, gate=gate)

        # Propagate before handling (Section III-C rule (i)).
        if not permanent:
            upstream = self.producer_of(port)
            if upstream is not None and upstream.supports_production_control():
                self._send_feedback(upstream, Feedback.suspend((signature,), origin=entry.gate))
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
                    self._send_feedback(upstream, Feedback.suspend((signature,), origin=gate))
                    entry = self.blacklists[port].entry(signature)
                    if entry is not None:
                        entry.propagated_upstream = True

    # -- resumption ----------------------------------------------------------------

    def _resume_production(self, signature: MNSSignature) -> List[StreamTuple]:
        """``Resume_Production``: the partial results suppressed for
        ``signature``, port by port.

        Rule (i) of Section III-C: a port whose suspension was propagated (to
        a producer that controls production) resumes upstream first, and the
        partials upstream returns are new inputs for that port.  The port
        replays its suspended tuples, then those partials; a Ø suspension
        parked both inputs, and each port replays its backlog in timestamp
        order.
        """
        ports = self._ports_of(signature)
        results: List[StreamTuple] = []
        for port in ports:
            entry = self.blacklists[port].pop_entry(signature)
            if entry is None:
                continue
            upstream_new: List[StreamTuple] = []
            if entry.propagated_upstream:
                upstream_new = self._send_feedback(
                    self.producer_of(port), Feedback.resume((signature,))
                )
            backlog: List[Tuple[StreamTuple, Optional[SuspendedTuple]]] = [
                (suspended.tuple, suspended) for suspended in entry.suspended
            ]
            backlog.extend((partial, None) for partial in upstream_new)
            if signature.is_empty:
                backlog.sort(key=lambda item: item[0].ts)
            for tup, record in backlog:
                results.extend(self._join_resumed(tup, port, record))
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

        Without ``use_hash_index`` each component of the tuple is first
        looked up in the opposite state (:meth:`OperatorState.any_live`, on
        the port's component lookups), and the scan runs only if every one
        has a present partner: otherwise no entry joins.  With it the
        partner scan becomes an index lookup on the equi-join key, combined
        with the same filters as the nested loop; entries with a different
        key would fail the equi conditions anyway, so skipping them is
        REF-equivalent.

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
        for partial in self._probe_mns_buffer(tup, opp):
            self.states[opp].insert(partial)
        watermark = upto_order = -1
        met_seqs: FrozenSet[int] = frozenset()
        if record is not None:
            watermark, upto_order = record.joined_upto_seq, record.joined_upto_order
            met_seqs = record.met_seqs
        produced: List[StreamTuple] = []
        opposite_state = self.states[opp]
        lookups = () if self.use_hash_index else self._component_lookups[port].values()
        candidates: Iterable[StateEntry] = ()
        if all(opposite_state.any_live(*lookup.probe(tup)) for lookup in lookups):
            # Otherwise some component has no partner, and no entry joins.
            candidates = self.probe_candidates(tup, opp, after_order=upto_order)
        for entry in candidates:
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
                cancel = Feedback.resume((entry.signature,))
                for partial in self._send_feedback(producer, cancel):
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
