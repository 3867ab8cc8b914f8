"""The producer-side blacklist of suspended tuples (Section IV-B).

When a producer receives a suspension feedback for an MNS ``s``, it scans the
corresponding operator state, moves every (similar) super-tuple of ``s`` into
the blacklist, and thereafter diverts new arrivals that match ``s`` straight
into the blacklist as well.  Each blacklisted tuple remembers how far through
the opposite state it had already been joined (its *watermark*), so that a
later resumption produces exactly the partial results that were skipped — no
more, no less.  The Ø signature suspends the operator wholesale; its
blacklist entry acts as a pending-input buffer that is replayed on resumption
(the DOE behaviour).

The blacklist is also the source of two quantities the JIT join needs for
exact REF-equivalence (see docs/JIT.md):

* :meth:`Blacklist.min_live_ts` feeds the *delayed purge floor* of the
  opposite operator state, and
* :meth:`Blacklist.is_alive` tells the consumer whether an MNS entry must be
  kept because suspended super-tuples still exist somewhere upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.context import ExecutionContext
from repro.core.signature import MNSSignature
from repro.metrics import CostKind
from repro.streams.tuples import StreamTuple

__all__ = ["SuspendedTuple", "BlacklistEntry", "Blacklist"]


@dataclass
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
    unmet_seqs:
        Opposite-state sequence numbers at or below the watermark that the
        tuple has *not* met, because the corresponding opposite tuples were
        themselves blacklisted during this tuple's entire residency in the
        state.  Resumption joins them despite the watermark.
    """

    tuple: StreamTuple
    joined_upto_seq: int
    suspended_at: float
    original_seq: Optional[int] = None
    met_seqs: FrozenSet[int] = frozenset()
    unmet_seqs: FrozenSet[int] = frozenset()

    @property
    def ts(self) -> float:
        """Timestamp of the suspended tuple."""
        return self.tuple.ts

    def has_met(self, opposite_seq: int) -> bool:
        """True if this suspended tuple has already been joined with ``opposite_seq``."""
        if opposite_seq in self.met_seqs:
            return True
        return opposite_seq <= self.joined_upto_seq and opposite_seq not in self.unmet_seqs


@dataclass
class BlacklistEntry:
    """All suspended tuples sharing one MNS signature."""

    signature: MNSSignature
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

    @property
    def size_bytes(self) -> int:
        """Modelled bytes of the entry's suspended tuples plus the signature."""
        return self.signature.size_bytes + sum(s.tuple.size_bytes for s in self.suspended)

    def min_ts(self) -> Optional[float]:
        """Earliest timestamp among signature and suspended tuples."""
        candidates = [self.signature.ts] + [s.ts for s in self.suspended]
        return min(candidates) if candidates else None

    def max_ts(self) -> Optional[float]:
        """Latest timestamp among signature and suspended tuples."""
        candidates = [self.signature.ts] + [s.ts for s in self.suspended]
        return max(candidates) if candidates else None


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
        unmet_seqs: FrozenSet[int] = frozenset(),
    ) -> Optional[SuspendedTuple]:
        """Park ``tup`` under ``signature``'s entry.

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
            unmet_seqs=unmet_seqs,
        )
        entry.suspended.append(suspended)
        self._count_hidden(entry, 1)
        self.context.memory.allocate(tup.size_bytes, self.MEMORY_CATEGORY)
        return suspended

    def pop_entry(self, signature: MNSSignature) -> Optional[BlacklistEntry]:
        """Remove and return the entry for ``signature`` (used on resumption)."""
        entry = self._entries.pop(signature, None)
        if entry is None:
            return None
        self._unindex_signature(signature)
        self._count_hidden(entry, -entry.hidden)
        released = signature.size_bytes + sum(s.tuple.size_bytes for s in entry.suspended)
        self.context.memory.release(released, self.MEMORY_CATEGORY)
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

    def unmet_exceptions_for(self, own_seq: int) -> FrozenSet[int]:
        """Original sequence numbers of suspended tuples that never met ``own_seq``.

        Called by the *opposite* side when one of its tuples (with state
        sequence ``own_seq``) is being suspended: any tuple currently parked
        here that has not met it must be excluded from the new suspension's
        watermark, otherwise neither side's resumption would ever produce the
        pair (see docs/JIT.md, "Watermark exceptions").
        """
        unmet = set()
        for entry in self._entries.values():
            for suspended in entry.suspended:
                self.context.cost.charge(CostKind.BLACKLIST_SCAN)
                if suspended.original_seq is None:
                    continue
                if not suspended.has_met(own_seq):
                    unmet.add(suspended.original_seq)
        return frozenset(unmet)

    # -- liveness / purging ------------------------------------------------------------------

    def min_live_ts(self) -> Optional[float]:
        """Earliest timestamp that any suspended work may still need to reach.

        The opposite operator state must not purge tuples newer than this
        minus one window, otherwise resumption would miss results.
        """
        values = [m for e in self._entries.values() if (m := e.min_ts()) is not None]
        return min(values) if values else None

    def is_alive(self, signature: MNSSignature, now: float, retention: float) -> bool:
        """True while ``signature``'s suspension can still matter.

        It matters while it has suspended tuples within the retention horizon,
        or while an upstream producer (to which the suspension was propagated)
        may still hold suspended super-tuples.
        """
        entry = self._entries.get(signature)
        if entry is None:
            return False
        if entry.permanent:
            return True
        latest = entry.max_ts()
        if latest is not None and latest + retention > now:
            return True
        return entry.propagated_upstream

    def purge(self, now: float, retention: float) -> int:
        """Drop suspended tuples (and empty, dead entries) past the retention horizon.

        Returns the number of suspended tuples dropped.  Entries whose
        suspension was propagated upstream are kept even when empty, so the
        liveness chain toward the consumer's MNS buffer stays intact.
        """
        dropped = 0
        purge_units = self.context.cost.weights.purge
        horizon = self.context.window.purge_horizon(now)
        for signature in list(self._entries):
            entry = self._entries[signature]
            keep: List[SuspendedTuple] = []
            for suspended in entry.suspended:
                self.context.cost.charge(CostKind.PURGE)
                if suspended.ts + retention > now:
                    keep.append(suspended)
                else:
                    dropped += 1
                    self.context.memory.release(
                        suspended.tuple.size_bytes, self.MEMORY_CATEGORY
                    )
            if entry.gate is not None and entry.suspended:
                # One PURGE per tuple examined: upkeep of the gate's suspension.
                entry.gate.spend(purge_units * len(entry.suspended))
                # Past the window REF holds the tuple no more: nothing left to avoid.
                live = sum(1 for suspended in keep if suspended.ts >= horizon)
                self._count_hidden(entry, live - entry.hidden)
            entry.suspended = keep
            if (
                not entry.suspended
                and not entry.propagated_upstream
                and not entry.permanent
                and signature.ts + retention <= now
            ):
                self._entries.pop(signature)
                self._unindex_signature(signature)
                self.context.memory.release(signature.size_bytes, self.MEMORY_CATEGORY)
        return dropped

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
        suspended = sum(len(e.suspended) for e in self._entries.values())
        return f"Blacklist({self.name!r}, entries={len(self._entries)}, suspended={suspended})"
