"""Value-based identities of minimal non-demanded sub-tuples (MNSs).

The paper detects MNSs as concrete sub-tuples (e.g. tuple ``a1``), but its
producer-side machinery explicitly generalizes to *similar* tuples: records
"that contain a sub-tuple s′ with identical join attributes as s" are treated
the same way (Section IV-B, the ``a2`` example).  We therefore identify an
MNS by its **signature**: which source components it covers and the values of
the join attributes that the consumer's predicate checks against the opposite
side.  Two sub-tuples with equal signatures are interchangeable for every JIT
decision — suspension, similar-arrival diversion and resumption — so
signatures are the keys of both the consumer's MNS buffer and the producer's
blacklist.

The empty signature (no components, no values) represents the paper's Ø MNS:
the opposite state of the consumer is empty, every producer output is
non-demanded, and the producer can be suspended wholesale (the behaviour of
the DOE baseline [21]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.streams.tuples import StreamTuple

__all__ = ["MNSSignature"]


@dataclass(frozen=True)
class MNSSignature:
    """Identity of an MNS: covered components plus their relevant join values.

    Parameters
    ----------
    sources:
        Sorted tuple of source names the MNS covers.  Empty for Ø.
    items:
        Sorted tuple of ``(source, attribute, value)`` triples — one per join
        attribute through which the consumer's predicate relates a covered
        component to the opposite side.
    ts:
        Timestamp of the sub-tuple from which the signature was first
        detected.  It is bookkeeping only and excluded from equality/hashing,
        so a *similar* later tuple (same values, different timestamp) maps to
        the same signature.
    """

    sources: Tuple[str, ...]
    items: Tuple[Tuple[str, str, object], ...]
    ts: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if tuple(sorted(self.sources)) != tuple(self.sources):
            raise ValueError(f"signature sources must be sorted: {self.sources}")
        for source, _attr, _value in self.items:
            if source not in self.sources:
                raise ValueError(
                    f"signature item references source {source!r} outside {self.sources}"
                )
        if tuple(sorted(self.items, key=lambda it: (it[0], it[1]))) != tuple(self.items):
            raise ValueError("signature items must be sorted by (source, attribute)")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def empty(cls, ts: float = 0.0) -> "MNSSignature":
        """The Ø signature: matches every tuple (total suspension / DOE)."""
        return cls(sources=(), items=(), ts=ts)

    @classmethod
    def from_components(
        cls,
        tup: StreamTuple,
        sources: Sequence[str],
        attributes: Iterable[Tuple[str, str]],
    ) -> "MNSSignature":
        """Build the signature of ``tup``'s sub-tuple over ``sources``.

        Parameters
        ----------
        tup:
            The tuple containing the non-demanded sub-tuple.
        sources:
            The component sources forming the sub-tuple.
        attributes:
            ``(source, attribute)`` pairs to record; only pairs whose source
            is in ``sources`` are kept.
        """
        srcs = tuple(sorted(set(sources)))
        items = tuple(
            sorted(
                {
                    (source, attr, tup.value(source, attr))
                    for source, attr in attributes
                    if source in srcs
                },
                key=lambda it: (it[0], it[1]),
            )
        )
        return cls(sources=srcs, items=items, ts=tup.ts)

    # -- predicates -----------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True for the Ø signature."""
        return not self.sources

    @property
    def source_set(self) -> FrozenSet[str]:
        """The covered sources as a frozenset."""
        return frozenset(self.sources)

    # ``template`` and ``key`` are read on every index, unindex and
    # extraction of the signature, so each is computed once per instance
    # (``cached_property`` writes the instance ``__dict__`` directly, which a
    # frozen dataclass allows; neither takes part in equality or hashing).

    @cached_property
    def template(self) -> Tuple[Tuple[str, str], ...]:
        """The ``(source, attribute)`` pairs of the items: what a hash index
        that finds this signature's (similar) super-tuples is built over."""
        return tuple((source, attr) for source, attr, _value in self.items)

    @cached_property
    def key(self) -> Tuple[object, ...]:
        """The item values, in :attr:`template` order."""
        return tuple(value for _source, _attr, value in self.items)

    def matches_super(self, tup: StreamTuple) -> bool:
        """True if ``tup`` is (similar to) a super-tuple of this MNS.

        ``tup`` must cover every signature source and agree on every recorded
        join-attribute value.  The Ø signature matches everything.
        """
        for source, attr, value in self.items:
            if not tup.covers(source) or tup.value(source, attr) != value:
                return False
        # A signature may, in principle, cover a source through no recorded
        # attribute (it then constrains only coverage).
        return all(tup.covers(source) for source in self.sources)

    def restrict(self, sources: Iterable[str], ts: Optional[float] = None) -> "MNSSignature":
        """Project the signature onto a subset of its sources.

        Used when decomposing a Type II MNS into its per-input parts
        (Section IV-B): ``ac`` splits into ``a`` for the left producer and
        ``c`` for the right one.
        """
        keep = frozenset(sources) & self.source_set
        return MNSSignature(
            sources=tuple(sorted(keep)),
            items=tuple(it for it in self.items if it[0] in keep),
            ts=self.ts if ts is None else ts,
        )

    def with_ts(self, ts: float) -> "MNSSignature":
        """Return a copy of the signature carrying a different timestamp."""
        return MNSSignature(sources=self.sources, items=self.items, ts=ts)

    @property
    def size_bytes(self) -> int:
        """Modelled storage footprint of the signature."""
        return 16 + 8 * len(self.items)

    def __str__(self) -> str:
        if self.is_empty:
            return "Ø"
        parts = ", ".join(f"{s}.{a}={v!r}" for s, a, v in self.items)
        return f"<{''.join(self.sources)}: {parts}>"
