"""The producer-side blacklist of suspended tuples (Section IV-B).

When a producer receives a suspension feedback for an MNS ``s``, it moves
every (similar) super-tuple of ``s`` from the corresponding operator state
into the blacklist, and thereafter diverts new arrivals that match ``s``
straight into the blacklist as well.  Each blacklisted tuple remembers how
far through the opposite state it had already been joined (its *watermark*),
so that a later resumption produces exactly the partial results that were
skipped — no more, no less.  The Ø signature suspends the operator
wholesale; its blacklist entry acts as a pending-input buffer that is
replayed on resumption (the DOE behaviour).

The blacklist is also the source of two quantities the JIT join needs for
exact REF-equivalence (see docs/JIT.md):

* :meth:`Blacklist.min_live_ts` feeds the *delayed purge floor* of the
  opposite operator state, and
* :meth:`BlacklistEntry.newest` tells the consumer (through
  ``JITJoinOperator.suspension_alive``) whether an MNS entry must be kept
  because suspended super-tuples still exist somewhere upstream.

**Watermark exceptions are decided at the pair.**  A watermark claims every
opposite entry at or below it was met, which is false for an opposite tuple
that sat in the opposite blacklist itself when this one was suspended and
had not met it.  Nothing is computed for such pairs at suspension: a
:class:`SuspendedTuple` is a *record* stamped with the operator's moments
(``created``; ``ended`` once its replay re-inserted the tuple) and linked to
the record its tuple had come from before (``previous``), and the replay
asks :meth:`SuspendedTuple.met` about the few opposite entries the
watermark covers although they entered the state after the suspension
(docs/JIT.md, "Watermark exceptions").

**Nothing here is a scan of the blacklist.**  An entry's ``suspended`` list
is in timestamp order until an append breaks it (an older tuple suspended
again), so its oldest and newest tuple sit at the ends and
:meth:`Blacklist.purge` stops at the first survivor; an entry whose order
broke is flagged and scanned in full until a purge finds it in order again.
None of it is charged to the :class:`~repro.metrics.MemoryModel` (the rule of
:mod:`repro.operators.state`: the model counts stored tuples).
``BLACKLIST_SCAN`` is one per record a pair test examines, ``PURGE`` one per
suspended tuple a purge examines.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.context import ExecutionContext
from repro.core.signature import MNSSignature
from repro.metrics import CostKind, CostModel
from repro.streams.tuples import StreamTuple

__all__ = ["SuspendedTuple", "BlacklistEntry", "Blacklist"]


#: A suspended record's timestamp, its tuple's.
_ts = attrgetter("tuple.ts")


@dataclass(slots=True)
class SuspendedTuple:
    """A tuple parked in the blacklist.

    Attributes
    ----------
    tuple:
        The suspended input tuple.
    joined_upto_seq:
        The opposite-state sequence number up to which (inclusive) this tuple
        has already been joined.  ``-1`` means it was never probed (it was
        diverted on arrival, like ``a2`` in the running example).
    suspended_at:
        Simulated time at which the tuple entered the blacklist.
    original_seq:
        Sequence number the tuple held in its own operator state before being
        extracted (None for tuples diverted on arrival, which were never
        inserted).  Resumption re-inserts the tuple under this number so that
        watermarks other suspended tuples recorded against it stay valid.
    met_seqs:
        Exact set of opposite-state sequence numbers (beyond the watermark)
        the tuple has already been joined with.  Only non-empty for a tuple
        whose probe was interrupted mid-way by the suspension.
    joined_upto_order:
        The watermark again, as a position: every opposite entry whose
        ``order`` stamp is at or below it has a sequence number at or below
        ``joined_upto_seq`` and was in the state at suspension, so resumption
        starts its scan behind it.  ``-1`` (with every ``-1`` watermark)
        means scan everything.
    created:
        The operator's moment when this record was made: how many records
        the operator had made, this one included.
    ended:
        The operator's moment when the replay of this record re-inserted the
        tuple (None until then): a record made after that has a larger
        ``created``, one made before it a ``created`` of at most this.
    previous:
        The record the tuple was re-inserted from before it was extracted
        into this one (``StateEntry.came_from``), None the first time: the
        tuple's earlier suspensions, newest first.
    """

    tuple: StreamTuple
    joined_upto_seq: int
    suspended_at: float
    original_seq: Optional[int] = None
    met_seqs: FrozenSet[int] = frozenset()
    joined_upto_order: int = -1
    created: int = 0
    ended: Optional[int] = None
    previous: Optional["SuspendedTuple"] = None

    def met(self, other_seq: int, chain: Optional["SuspendedTuple"], cost: CostModel) -> bool:
        """True if this suspended tuple has already been joined with the
        opposite entry ``other_seq``, whose tuple was re-inserted by the
        replay of ``chain`` (docs/JIT.md, "Watermark exceptions").

        Named in ``met_seqs``, the pair met; past the watermark, it did not.
        At or below it the watermark is wrong only if the other tuple sat in
        the opposite blacklist when this record was made: its record then is
        the newest on ``chain`` made before this one, and if it had been
        re-inserted by then (or was never seated) the pair met.  If not, the
        two were suspended at once, and this one met the other iff the other
        had met this one when it was suspended — the same question one step
        back in time.  One ``BLACKLIST_SCAN`` per record examined on a chain.
        """
        record, examined = self, 0
        try:
            while True:
                if other_seq in record.met_seqs:
                    return True
                if other_seq > record.joined_upto_seq:
                    return False
                while chain is not None and not chain.created < record.created:
                    examined += 1
                    chain = chain.previous
                if chain is None:
                    return True
                examined += 1
                if chain.original_seq is None or chain.ended < record.created:
                    return True
                record, other_seq, chain = chain, record.original_seq, record.previous
        finally:
            if examined:
                cost.charge(CostKind.BLACKLIST_SCAN, examined)


@dataclass(slots=True)
class BlacklistEntry:
    """All suspended tuples sharing one MNS signature."""

    signature: MNSSignature
    #: Every suspended tuple, in suspension order (the order resumption replays).
    suspended: List[SuspendedTuple] = field(default_factory=list)
    #: True when the suspension came from a consumer that will never resume
    #: (selection / static-join consumers); such tuples are simply dropped.
    permanent: bool = False
    #: True when the suspension was propagated to this operator's own
    #: producer, in which case liveness must consider the upstream blacklist
    #: even after the local tuples expire.
    propagated_upstream: bool = False
    created_at: float = 0.0
    #: The detection gate of the consumer port that detected the MNS (it
    #: travels with the suspension feedback, so a propagated entry still
    #: names the gate it started from); None when no gate asked for it.
    gate: Optional[object] = None
    #: How many of ``suspended`` an opposite probe would still meet under
    #: REF: those inside the window as of the last purge, plus later ones.
    hidden: int = 0
    #: False once an append broke the timestamp order of ``suspended``.
    ts_ordered: bool = True
    #: Modelled bytes of the signature plus the suspended tuples.
    size_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.size_bytes = self.signature.size_bytes + sum(
            s.tuple.size_bytes for s in self.suspended
        )

    def min_ts(self) -> float:
        """Earliest timestamp among signature and suspended tuples."""
        return min(self.signature.ts, self._end(0, min).ts)

    def newest(self) -> Union[MNSSignature, StreamTuple]:
        """The signature or suspended tuple with the latest timestamp: the
        one the window retains longest."""
        end = self._end(-1, max)
        return end if end.ts > self.signature.ts else self.signature

    def _end(self, end: int, pick) -> Union[MNSSignature, StreamTuple]:
        if not self.suspended:
            return self.signature
        if self.ts_ordered:
            return self.suspended[end].tuple
        return pick(self.suspended, key=_ts).tuple


class Blacklist:
    """Blacklist for one input port of a producer operator.

    Parameters
    ----------
    name:
        Diagnostic name (e.g. ``"Op1.left.blacklist"``).
    context:
        Shared execution context (cost / memory accounting).
    """

    MEMORY_CATEGORY = "blacklist"

    def __init__(self, name: str, context: ExecutionContext) -> None:
        self.name = name
        self.context = context
        self._entries: Dict[MNSSignature, BlacklistEntry] = {}
        #: Hash index over the signatures' (source, attr) templates for O(1)
        #: matching of new arrivals.
        self._index: Dict[Tuple[Tuple[str, str], ...], Dict[Tuple[object, ...], List[MNSSignature]]] = {}
        #: Signatures that cannot be hash-matched (Ø).
        self._scan_signatures: List[MNSSignature] = []
        #: Origin gate -> tuples it keeps suspended here: who is credited for
        #: the probes that do not meet them, and in which proportion.
        self.hidden: Dict[object, int] = {}
        #: Suspended tuples over all entries.
        self.suspended_count = 0
        #: :meth:`min_live_ts`, kept by every add; once something has left the
        #: blacklist it is not known until recomputed from the entries' ends.
        self._min_live: Optional[float] = None
        self._min_live_known = True

    # -- entry management ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: MNSSignature) -> bool:
        return signature in self._entries

    def entries(self) -> List[BlacklistEntry]:
        """All blacklist entries (unordered)."""
        return list(self._entries.values())

    def entry(self, signature: MNSSignature) -> Optional[BlacklistEntry]:
        """The entry for ``signature``, or None."""
        return self._entries.get(signature)

    def ensure_entry(
        self,
        signature: MNSSignature,
        now: float,
        permanent: bool = False,
        gate: Optional[object] = None,
    ) -> BlacklistEntry:
        """Return the entry for ``signature``, creating it (for ``gate``) if necessary."""
        entry = self._entries.get(signature)
        if entry is None:
            entry = BlacklistEntry(
                signature=signature, permanent=permanent, created_at=now, gate=gate
            )
            self._entries[signature] = entry
            self._index_signature(signature)
            self._note_ts(signature.ts)
            self.context.memory.allocate(signature.size_bytes, self.MEMORY_CATEGORY)
        elif permanent:
            entry.permanent = True
        return entry

    def add_suspended(
        self,
        signature: MNSSignature,
        tup: StreamTuple,
        joined_upto_seq: int,
        now: float,
        permanent: bool = False,
        original_seq: Optional[int] = None,
        met_seqs: FrozenSet[int] = frozenset(),
        joined_upto_order: int = -1,
        created: int = 0,
        previous: Optional[SuspendedTuple] = None,
    ) -> Optional[SuspendedTuple]:
        """Park ``tup`` under ``signature``'s entry; the record's fields are
        the keyword arguments of the same names.

        Permanent suspensions drop the tuple instead of storing it (the
        consumer will never ask for it back), returning None.
        """
        entry = self.ensure_entry(signature, now, permanent=permanent)
        if entry.permanent:
            return None
        suspended = SuspendedTuple(
            tuple=tup,
            joined_upto_seq=joined_upto_seq,
            suspended_at=now,
            original_seq=original_seq,
            met_seqs=met_seqs,
            joined_upto_order=joined_upto_order,
            created=created,
            previous=previous,
        )
        if entry.suspended and tup.ts < entry.suspended[-1].tuple.ts:
            entry.ts_ordered = False
        entry.suspended.append(suspended)
        self.suspended_count += 1
        self._note_ts(tup.ts)
        self._count_hidden(entry, 1)
        entry.size_bytes += tup.size_bytes
        self.context.memory.allocate(tup.size_bytes, self.MEMORY_CATEGORY)
        return suspended

    def pop_entry(self, signature: MNSSignature) -> Optional[BlacklistEntry]:
        """Remove and return the entry for ``signature`` (used on resumption)."""
        entry = self._entries.pop(signature, None)
        if entry is None:
            return None
        self._unindex_signature(signature)
        self._count_hidden(entry, -entry.hidden)
        self.suspended_count -= len(entry.suspended)
        self._min_live_known = False
        self.context.memory.release(entry.size_bytes, self.MEMORY_CATEGORY)
        return entry

    # -- matching new arrivals ---------------------------------------------------------

    def match_arrival(self, tup: StreamTuple) -> Optional[BlacklistEntry]:
        """Return the entry whose signature ``tup`` matches, if any.

        Used to divert new arrivals that are *similar* to an already-suspended
        MNS (the ``a2`` case).  If several signatures match, the one created
        earliest wins; the others will simply see fewer similar arrivals,
        which affects only how much work is saved.
        """
        candidates: List[BlacklistEntry] = []
        for template, by_key in self._index.items():
            self.context.cost.charge(CostKind.HASH)
            try:
                key = tuple(tup.value(src, attr) for src, attr in template)
            except KeyError:
                continue
            for signature in by_key.get(key, ()):
                entry = self._entries.get(signature)
                if entry is not None:
                    candidates.append(entry)
        for signature in self._scan_signatures:
            entry = self._entries.get(signature)
            if entry is None:
                continue
            self.context.cost.charge(CostKind.BLACKLIST_SCAN)
            if signature.matches_super(tup):
                candidates.append(entry)
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.created_at)

    # -- liveness / purging ------------------------------------------------------------------

    def min_live_ts(self) -> Optional[float]:
        """Earliest timestamp that any suspended work may still need to reach.

        The opposite operator state must not purge tuples newer than this
        minus one window, otherwise resumption would miss results.
        """
        if not self._min_live_known:
            self._min_live = min((e.min_ts() for e in self._entries.values()), default=None)
            self._min_live_known = True
        return self._min_live

    def _note_ts(self, ts: float) -> None:
        """A signature or tuple stamped ``ts`` joined the blacklist."""
        if self._min_live_known and (self._min_live is None or ts < self._min_live):
            self._min_live = ts

    def purge(self, now: float, retention: float) -> int:
        """Drop suspended tuples (and empty, dead entries) past the retention horizon.

        Returns the number of suspended tuples dropped.  Entries whose
        suspension was propagated upstream are kept even when empty, so the
        liveness chain toward the consumer's MNS buffer stays intact.

        One ``PURGE`` per suspended tuple examined, booked on the entry's
        gate: the dropped ones and the first survivor of an entry in
        timestamp order, every tuple of an entry whose order broke.
        """
        dropped = 0
        cost = self.context.cost
        purge_units = cost.weights.purge
        window = self.context.window
        horizon = window.purge_horizon(now)
        for signature in list(self._entries):
            entry = self._entries[signature]
            if entry.suspended:
                gone, examined = self._drop_expired(entry, now, retention)
                cost.charge(CostKind.PURGE, examined)
                if gone:
                    dropped += len(gone)
                    released = sum(s.tuple.size_bytes for s in gone)
                    entry.size_bytes -= released
                    self.context.memory.release(released, self.MEMORY_CATEGORY)
                if entry.gate is not None:
                    # One PURGE per tuple examined: upkeep of the gate's suspension.
                    entry.gate.spend(purge_units * examined)
                    # Past the window REF holds the tuple no more: nothing left to avoid.
                    kept = entry.suspended
                    if entry.ts_ordered:
                        live = len(kept) - bisect_left(kept, horizon, key=_ts)
                    else:
                        live = sum(1 for s in kept if s.tuple.ts >= horizon)
                    self._count_hidden(entry, live - entry.hidden)
            if (
                not entry.suspended
                and not entry.propagated_upstream
                and not entry.permanent
                and not window.retains(signature, now, retention)
            ):
                self._entries.pop(signature)
                self._unindex_signature(signature)
                self.context.memory.release(signature.size_bytes, self.MEMORY_CATEGORY)
        self.suspended_count -= dropped
        self._min_live_known = False
        return dropped

    def _drop_expired(
        self, entry: BlacklistEntry, now: float, retention: float
    ) -> Tuple[List[SuspendedTuple], int]:
        """Take the tuples the window no longer retains out of ``entry``.

        Returns them and the number of suspended tuples examined to find them:
        up to the first one retained while the entry is in timestamp order,
        every one otherwise.
        """
        retains = self.context.window.retains
        suspended = entry.suspended
        held = len(suspended)
        if entry.ts_ordered:
            count = 0
            for s in suspended:
                if retains(s.tuple, now, retention):
                    break
                count += 1
            gone = suspended[:count]
            del suspended[:count]
            return gone, min(count + 1, held)
        kept: List[SuspendedTuple] = []
        gone = []
        for s in suspended:
            (kept if retains(s.tuple, now, retention) else gone).append(s)
        if gone:
            entry.suspended = kept
            entry.ts_ordered = all(a.tuple.ts <= b.tuple.ts for a, b in zip(kept, kept[1:]))
        return gone, held

    @property
    def memory_bytes(self) -> int:
        """Modelled bytes currently held by the blacklist."""
        return sum(e.size_bytes for e in self._entries.values())

    # -- detection-gate ledger -----------------------------------------------------------------------

    def _count_hidden(self, entry: BlacklistEntry, delta: int) -> None:
        gate = entry.gate
        if gate is None or not delta:
            return
        entry.hidden += delta
        count = self.hidden.get(gate, 0) + delta
        if count:
            self.hidden[gate] = count
        else:
            del self.hidden[gate]

    def book_upkeep(self, units: float) -> None:
        """Book ``units`` spent keeping this blacklist on the origin gates.

        Split in proportion to the tuples each gate keeps suspended here;
        with none suspended there is nobody to book the (few) units on.
        """
        total = sum(self.hidden.values())
        for gate, count in self.hidden.items():
            gate.spend(units * count / total)

    # -- indexing internals ------------------------------------------------------------------------

    def _index_signature(self, signature: MNSSignature) -> None:
        if signature.is_empty:
            self._scan_signatures.append(signature)
            return
        self._index.setdefault(signature.template, {}).setdefault(signature.key, []).append(
            signature
        )

    def _unindex_signature(self, signature: MNSSignature) -> None:
        if signature.is_empty:
            if signature in self._scan_signatures:
                self._scan_signatures.remove(signature)
            return
        template, key = signature.template, signature.key
        bucket = self._index.get(template, {}).get(key)
        if bucket and signature in bucket:
            bucket.remove(signature)
            if not bucket:
                self._index[template].pop(key, None)

    def __repr__(self) -> str:
        return (
            f"Blacklist({self.name!r}, entries={len(self._entries)}, "
            f"suspended={self.suspended_count})"
        )
