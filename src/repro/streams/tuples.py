"""Atomic and composite stream tuples.

Two kinds of tuples flow through an execution plan:

* :class:`AtomicTuple` -- a record arriving from a single streaming source,
  e.g. ``a1`` from source ``A`` in the paper's running example.
* :class:`CompositeTuple` -- a (partial) join result combining one atomic
  tuple per participating source, e.g. ``a1b1`` produced by the join
  ``A ⋈ B``.

Both are immutable and hashable, which lets the test suite compare the exact
result sets of different execution strategies (JIT vs REF vs DOE), and lets
JIT structures (blacklists, MNS buffers) index tuples directly.

Timestamps follow the paper's convention (Section II): an atomic tuple's
timestamp is its arrival time, and a composite tuple carries the maximum
timestamp of its components — the earliest instant at which it could have
been assembled.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

__all__ = ["AtomicTuple", "CompositeTuple", "StreamTuple", "join_tuples"]


class AtomicTuple:
    """A single record from one streaming source.

    The attribute mapping is stored once, as a private dict copy; the hash
    is computed from its sorted items at construction, and ``repr`` sorts
    them again when asked.

    Parameters
    ----------
    source:
        Name of the originating source (e.g. ``"A"``).
    ts:
        Arrival timestamp in seconds of application time.
    attrs:
        Mapping from attribute name to value.
    seq:
        Global arrival sequence number assigned by the workload / source
        layer.  It is unique per source and increases with arrival order;
        JIT uses it for resume watermarks, and the memory model uses it as a
        stable identity.
    size_bytes:
        Modelled storage footprint.  Defaults to ``16 + 8 * len(attrs)``.
    """

    __slots__ = ("source", "ts", "seq", "_attrs", "size_bytes", "_hash")

    def __init__(
        self,
        source: str,
        ts: float,
        attrs: Mapping[str, object],
        seq: int = 0,
        size_bytes: Optional[int] = None,
    ) -> None:
        if not source:
            raise ValueError("source name must be non-empty")
        self.source = source
        self.ts = float(ts)
        self.seq = int(seq)
        self._attrs: Dict[str, object] = dict(attrs)
        self.size_bytes = (
            int(size_bytes) if size_bytes is not None else 16 + 8 * len(self._attrs)
        )
        self._hash = hash((self.source, self.seq, self.ts, tuple(sorted(self._attrs.items()))))

    # -- tuple interface ---------------------------------------------------

    @property
    def sources(self) -> Tuple[str, ...]:
        """The (single-element) tuple of source names this tuple covers."""
        return (self.source,)

    @property
    def components(self) -> Tuple["AtomicTuple", ...]:
        """The atomic components of this tuple (itself)."""
        return (self,)

    @property
    def attrs(self) -> Mapping[str, object]:
        """Read-only view of the attribute mapping."""
        return dict(self._attrs)

    def component(self, source: str) -> "AtomicTuple":
        """Return the component originating from ``source``.

        Raises ``KeyError`` if this tuple does not cover ``source``.
        """
        if source != self.source:
            raise KeyError(f"tuple from {self.source!r} has no component for {source!r}")
        return self

    def covers(self, source: str) -> bool:
        """Return True if this tuple contains a component from ``source``."""
        return source == self.source

    def value(self, source: str, attr: str) -> object:
        """Return the value of ``source.attr`` carried by this tuple."""
        if source != self.source:
            raise KeyError(f"tuple from {self.source!r} has no component for {source!r}")
        try:
            return self._attrs[attr]
        except KeyError:
            raise KeyError(f"tuple from {self.source!r} has no attribute {attr!r}") from None

    def get(self, attr: str, default: object = None) -> object:
        """Return attribute ``attr`` of this atomic tuple, or ``default``."""
        return self._attrs.get(attr, default)

    def contains(self, other: "StreamTuple") -> bool:
        """Return True if ``other`` is a sub-tuple of this tuple.

        For atomic tuples the only sub-tuples are the tuple itself and the
        empty tuple (represented by ``None`` elsewhere; here only identity is
        checked).
        """
        return isinstance(other, AtomicTuple) and other == self

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomicTuple):
            return NotImplemented
        return (
            self.source == other.source
            and self.seq == other.seq
            and self.ts == other.ts
            and self._attrs == other._attrs
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(self._attrs.items()))
        return f"{self.source}#{self.seq}(ts={self.ts:g}, {attrs})"


class CompositeTuple:
    """A (partial) join result covering several sources.

    Components are stored sorted by source name, so two composite tuples
    assembled in different join orders but containing the same atomic tuples
    compare equal — this is what makes result-set comparison across plan
    shapes and execution strategies meaningful.
    """

    __slots__ = ("_components", "_by_source", "ts", "size_bytes", "_hash")

    def __init__(self, components: Iterable[AtomicTuple]) -> None:
        comps = tuple(sorted(components, key=lambda c: c.source))
        if len(comps) < 2:
            raise ValueError("a composite tuple needs at least two components")
        by_source: Dict[str, AtomicTuple] = {}
        for comp in comps:
            if comp.source in by_source:
                raise ValueError(f"duplicate component for source {comp.source!r}")
            by_source[comp.source] = comp
        self._components = comps
        self._by_source = by_source
        self.ts = max(c.ts for c in comps)
        self.size_bytes = 16 + sum(c.size_bytes for c in comps)
        self._hash = hash(comps)

    # -- tuple interface ---------------------------------------------------

    @property
    def sources(self) -> Tuple[str, ...]:
        """Sorted tuple of source names covered by this tuple."""
        return tuple(c.source for c in self._components)

    @property
    def components(self) -> Tuple[AtomicTuple, ...]:
        """Atomic components sorted by source name."""
        return self._components

    def component(self, source: str) -> AtomicTuple:
        """Return the component originating from ``source``."""
        try:
            return self._by_source[source]
        except KeyError:
            raise KeyError(
                f"composite tuple over {self.sources} has no component for {source!r}"
            ) from None

    def covers(self, source: str) -> bool:
        """Return True if this tuple contains a component from ``source``."""
        return source in self._by_source

    def value(self, source: str, attr: str) -> object:
        """Return the value of ``source.attr`` carried by this tuple."""
        return self.component(source).value(source, attr)

    def contains(self, other: "StreamTuple") -> bool:
        """Return True if ``other`` is a sub-tuple of this tuple.

        A sub-tuple is a tuple whose components are all components of this
        tuple (same atomic records, not merely equal attribute values).
        """
        for comp in other.components:
            mine = self._by_source.get(comp.source)
            if mine is None or mine != comp:
                return False
        return True

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeTuple):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = "".join(f"{c.source.lower()}{c.seq}" for c in self._components)
        return f"<{inner} ts={self.ts:g}>"


#: Any tuple flowing through the plan: a source record or a partial result.
StreamTuple = Union[AtomicTuple, CompositeTuple]


def join_tuples(left: StreamTuple, right: StreamTuple) -> CompositeTuple:
    """Concatenate two tuples into a composite join result.

    The operands must not overlap in source coverage; the result covers the
    union of their sources and carries the maximum component timestamp.

    Raises
    ------
    ValueError
        If the two tuples share a source.
    """
    components = list(left.components) + list(right.components)
    seen = set()
    for comp in components:
        if comp.source in seen:
            raise ValueError(
                f"cannot join tuples that overlap on source {comp.source!r}: "
                f"{left!r} and {right!r}"
            )
        seen.add(comp.source)
    return CompositeTuple(components)
