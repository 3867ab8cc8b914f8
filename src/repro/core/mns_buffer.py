"""The consumer-side MNS buffer (Section III-A).

After detecting an MNS, the consumer "stores all detected MNSs in an MNS
buffer until their expiration, and probes each incoming tuple from the
opposite input against the MNS buffer".  When a probe hits, the MNS is
removed and a resumption feedback is sent to the producer.

The buffer is keyed by :class:`~repro.core.signature.MNSSignature`, so a later
*similar* sub-tuple (same join-attribute values) folds into the existing
entry.  For equi-join conditions the probe is a hash lookup ("the MNS buffer
may be organized as a hash table", Section III-A); non-equi conditions fall
back to a linear scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.context import ExecutionContext
from repro.core.signature import MNSSignature
from repro.metrics import CostKind
from repro.operators.predicates import COMPARATORS, AttributeRef, JoinCondition
from repro.streams.tuples import StreamTuple

__all__ = ["MNSBufferEntry", "MNSBuffer"]

#: (opposite-side attribute, comparator spelling, value recorded in the MNS).
PartnerCheck = Tuple[AttributeRef, str, object]


@dataclass
class MNSBufferEntry:
    """One buffered MNS.

    Attributes
    ----------
    signature:
        The MNS's value-based identity.
    partner_checks:
        The checks an incoming opposite-side tuple must satisfy to count as a
        matching partner of the MNS.
    detected_at:
        Simulated time of the first detection.
    """

    signature: MNSSignature
    partner_checks: Tuple[PartnerCheck, ...]
    detected_at: float

    @property
    def size_bytes(self) -> int:
        """Modelled footprint of the entry."""
        return self.signature.size_bytes + 8 * len(self.partner_checks)

    @property
    def equi_only(self) -> bool:
        """True if every partner check is an equality (hash-indexable)."""
        return all(cmp in ("=", "==") for _ref, cmp, _val in self.partner_checks)


class MNSBuffer:
    """Buffer of detected MNSs for one input port of a consumer operator.

    Parameters
    ----------
    name:
        Diagnostic name (e.g. ``"Op2.left.mns"``).
    context:
        Shared execution context.
    side_sources:
        Sources covered by tuples arriving on the buffered port.
    conditions:
        The consumer's local join conditions (between the two ports); they
        determine how an opposite-side tuple is matched against a signature.
    """

    MEMORY_CATEGORY = "mns_buffer"

    def __init__(
        self,
        name: str,
        context: ExecutionContext,
        side_sources: Iterable[str],
        conditions: Sequence[JoinCondition],
    ) -> None:
        self.name = name
        self.context = context
        self.side_sources = frozenset(side_sources)
        self.conditions = tuple(conditions)
        self._entries: Dict[MNSSignature, MNSBufferEntry] = {}
        #: Hash index: template (tuple of opposite refs) -> value key -> signatures.
        self._equi_index: Dict[Tuple[AttributeRef, ...], Dict[Tuple[object, ...], List[MNSSignature]]] = {}
        #: Entries that cannot be hash-indexed (non-equi conditions or Ø).
        self._scan_entries: List[MNSSignature] = []

    # -- construction of partner checks ---------------------------------------------

    def _partner_checks(self, signature: MNSSignature) -> Tuple[PartnerCheck, ...]:
        """Derive the opposite-side checks implied by ``signature``."""
        sig_values = {(s, a): v for s, a, v in signature.items}
        checks: List[PartnerCheck] = []
        for cond in self.conditions:
            if cond.left.source in signature.sources:
                this_ref, opp_ref = cond.left, cond.right
            elif cond.right.source in signature.sources:
                this_ref, opp_ref = cond.right, cond.left
            else:
                continue
            value = sig_values.get((this_ref.source, this_ref.attribute))
            if value is None and (this_ref.source, this_ref.attribute) not in sig_values:
                # The signature does not record this attribute; the check
                # cannot be evaluated, so the condition is skipped (the match
                # becomes more permissive, which only costs performance).
                continue
            comparator = getattr(cond, "comparator", "=")
            checks.append((opp_ref, comparator, value))
        return tuple(checks)

    # -- container operations ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: MNSSignature) -> bool:
        return signature in self._entries

    def entries(self) -> List[MNSBufferEntry]:
        """All buffered entries (unordered)."""
        return list(self._entries.values())

    def add(self, signature: MNSSignature, now: float) -> MNSBufferEntry:
        """Insert ``signature`` (idempotent: an existing entry is returned)."""
        existing = self._entries.get(signature)
        if existing is not None:
            return existing
        entry = MNSBufferEntry(
            signature=signature,
            partner_checks=self._partner_checks(signature),
            detected_at=now,
        )
        self._entries[signature] = entry
        self._index_entry(entry)
        self.context.memory.allocate(entry.size_bytes, self.MEMORY_CATEGORY)
        return entry

    def remove(self, signature: MNSSignature) -> Optional[MNSBufferEntry]:
        """Remove and return the entry for ``signature``, if present."""
        entry = self._entries.pop(signature, None)
        if entry is None:
            return None
        self._unindex_entry(entry)
        self.context.memory.release(entry.size_bytes, self.MEMORY_CATEGORY)
        return entry

    # -- probing ------------------------------------------------------------------------

    def match(self, tup: StreamTuple) -> List[MNSBufferEntry]:
        """Return all buffered MNSs that ``tup`` (an opposite-side tuple) matches.

        This is the probe of Process_Input lines 4-6 (Figure 6).
        """
        matched: List[MNSBufferEntry] = []
        for template, by_key in self._equi_index.items():
            self.context.cost.charge(CostKind.HASH)
            try:
                key = tuple(ref.value(tup) for ref in template)
            except KeyError:
                continue
            for signature in by_key.get(key, ()):
                entry = self._entries.get(signature)
                if entry is not None:
                    matched.append(entry)
        for signature in list(self._scan_entries):
            entry = self._entries.get(signature)
            if entry is None:
                continue
            self.context.cost.charge(CostKind.PROBE_STEP)
            if self._checks_hold(entry, tup):
                matched.append(entry)
        return matched

    def _checks_hold(self, entry: MNSBufferEntry, tup: StreamTuple) -> bool:
        for opp_ref, comparator, value in entry.partner_checks:
            self.context.cost.charge(CostKind.PREDICATE_EVAL)
            if not tup.covers(opp_ref.source):
                return False
            if not COMPARATORS[comparator](value, opp_ref.value(tup)):
                return False
        return True

    # -- cross-side compatibility (cycle prevention) ----------------------------------------

    def partner_map(self, signature: MNSSignature) -> Dict[Tuple[str, str], object]:
        """Constraints a matching partner of ``signature`` must satisfy.

        Returned as ``(source, attribute) -> value`` over the *opposite* side's
        attributes; used by the suspension-cycle check below.
        """
        return {
            (ref.source, ref.attribute): value
            for ref, comparator, value in self._partner_checks(signature)
            if comparator in ("=", "==")
        }

    @staticmethod
    def _maps_compatible(
        a: Dict[Tuple[str, str], object], b: Dict[Tuple[str, str], object]
    ) -> bool:
        """True if the two constraint maps could be satisfied by one tuple.

        Maps are compatible unless they disagree on a shared attribute; in
        particular an empty map (the Ø signature) is compatible with anything.
        """
        for key, value in a.items():
            if key in b and b[key] != value:
                return False
        return True

    def blocks_suspension(
        self,
        new_items: Dict[Tuple[str, str], object],
        new_partner: Dict[Tuple[str, str], object],
    ) -> bool:
        """Return True if suspending a new opposite-side MNS could deadlock.

        The paper never discusses the case where MNSs are active on *both*
        inputs of a consumer and each one's missing partner is exactly what
        the other suspension suppresses: neither side can ever trigger the
        other's resumption and results are silently lost (see docs/JIT.md,
        "Cycle prevention").  To keep JIT's output identical to REF, a new MNS
        is only suspended when,
        for every MNS already buffered on the opposite side, (i) the new MNS's
        required partner conflicts with what the existing suspension hides and
        (ii) the existing MNS's required partner conflicts with what the new
        suspension would hide.  This method reports whether any buffered entry
        violates that rule.
        """
        for entry in self._entries.values():
            self.context.cost.charge(CostKind.BLACKLIST_SCAN)
            existing_items = {(s, a): v for s, a, v in entry.signature.items}
            existing_partner = {
                (ref.source, ref.attribute): value
                for ref, comparator, value in entry.partner_checks
                if comparator in ("=", "==")
            }
            if self._maps_compatible(new_partner, existing_items):
                return True
            if self._maps_compatible(new_items, existing_partner):
                return True
        return False

    # -- maintenance -----------------------------------------------------------------------

    def purge(self, alive: Callable[[MNSSignature], bool]) -> List[MNSBufferEntry]:
        """Drop entries for which ``alive(signature)`` is False; return them."""
        dead = [sig for sig in self._entries if not alive(sig)]
        return [entry for sig in dead if (entry := self.remove(sig)) is not None]

    def min_active_ts(self) -> Optional[float]:
        """Earliest signature timestamp among buffered entries (None if empty).

        The consumer's own-side state uses this to compute its delayed-purge
        floor: partial results resumed for these MNSs may need to join state
        tuples as old as ``min_active_ts - w``.
        """
        if not self._entries:
            return None
        return min(sig.ts for sig in self._entries)

    @property
    def memory_bytes(self) -> int:
        """Modelled bytes currently held by the buffer."""
        return sum(e.size_bytes for e in self._entries.values())

    # -- indexing internals --------------------------------------------------------------------

    def _index_entry(self, entry: MNSBufferEntry) -> None:
        if not entry.partner_checks or not entry.equi_only:
            self._scan_entries.append(entry.signature)
            return
        template = tuple(sorted((c[0] for c in entry.partner_checks), key=str))
        values = {c[0]: c[2] for c in entry.partner_checks}
        key = tuple(values[ref] for ref in template)
        self._equi_index.setdefault(template, {}).setdefault(key, []).append(entry.signature)

    def _unindex_entry(self, entry: MNSBufferEntry) -> None:
        if not entry.partner_checks or not entry.equi_only:
            try:
                self._scan_entries.remove(entry.signature)
            except ValueError:
                pass
            return
        template = tuple(sorted((c[0] for c in entry.partner_checks), key=str))
        values = {c[0]: c[2] for c in entry.partner_checks}
        key = tuple(values[ref] for ref in template)
        bucket = self._equi_index.get(template, {}).get(key)
        if bucket and entry.signature in bucket:
            bucket.remove(entry.signature)
            if not bucket:
                self._equi_index[template].pop(key, None)

    def __repr__(self) -> str:
        return f"MNSBuffer({self.name!r}, entries={len(self._entries)})"
