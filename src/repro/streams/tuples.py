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

An atomic tuple stores its attribute *values* only, as a tuple in
sorted-name order.  The names live in a *layout*: one interned map from each
name to its position per attribute set, shared by every tuple with that set
(all the tuples of one source, typically).  Unpickling re-interns it, so a
process worker's tuples share one layout too; an atomic tuple pickles as
``(source, ts, seq, names, values, size_bytes)``, and a ``StreamEvent``
carries that state inline.  A composite tuple stores its components alone,
sorted by source, and finds one by scanning them: a join result has two to
five.

Timestamps follow the paper's convention (Section II): an atomic tuple's
timestamp is its arrival time, and a composite tuple carries the maximum
timestamp of its components — the earliest instant at which it could have
been assembled.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

__all__ = ["AtomicTuple", "CompositeTuple", "StreamTuple", "join_tuples"]

#: Name -> position in a tuple's values; one per attribute set, shared.
_Layout = Dict[str, int]

# Process-wide on purpose, like ``sys.intern``: sharing needs one table.  It
# only grows, by one entry per attribute set seen, and nothing mutates a
# layout once registered.

#: Sorted attribute names -> their interned layout.
_LAYOUTS: Dict[Tuple[str, ...], _Layout] = {}

_source_of = attrgetter("source")


def _layout(names: Tuple[str, ...]) -> _Layout:
    """The interned layout of the sorted attribute names ``names``."""
    layout = _LAYOUTS.get(names)
    if layout is None:
        layout = _LAYOUTS[names] = {name: position for position, name in enumerate(names)}
    return layout


class AtomicTuple:
    """A single record from one streaming source.

    The attributes are stored as a tuple of values in sorted-name order
    beside the interned layout of their names (see the module docstring);
    the hash is computed from the sorted items at construction.

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

    __slots__ = ("source", "ts", "seq", "_layout", "_values", "size_bytes", "_hash")

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
        self.ts = ts = float(ts)
        self.seq = seq = int(seq)
        items = tuple(sorted(attrs.items()))
        names, values = zip(*items) if items else ((), ())
        self._layout = _layout(names)
        self._values = values
        self.size_bytes = int(size_bytes) if size_bytes is not None else 16 + 8 * len(values)
        self._hash = hash((source, seq, ts, items))

    def __reduce__(self) -> tuple:
        names = tuple(self._layout)
        return _restore_atomic, (self.source, self.ts, self.seq, names, self._values, self.size_bytes)

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
    def attrs(self) -> Dict[str, object]:
        """A copy of the attribute mapping, in sorted-name order."""
        return dict(zip(self._layout, self._values))

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
            return self._values[self._layout[attr]]
        except KeyError:
            raise KeyError(f"tuple from {self.source!r} has no attribute {attr!r}") from None

    def get(self, attr: str, default: object = None) -> object:
        """Return attribute ``attr`` of this atomic tuple, or ``default``."""
        position = self._layout.get(attr)
        return default if position is None else self._values[position]

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
            and self._layout is other._layout
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v}" for k, v in zip(self._layout, self._values))
        return f"{self.source}#{self.seq}(ts={self.ts:g}, {attrs})"


class CompositeTuple:
    """A (partial) join result covering several sources.

    Components are stored sorted by source name, so two composite tuples
    assembled in different join orders but containing the same atomic tuples
    compare equal — this is what makes result-set comparison across plan
    shapes and execution strategies meaningful.
    """

    __slots__ = ("_components", "ts", "size_bytes", "_hash")

    def __init__(self, components: Iterable[AtomicTuple]) -> None:
        comps = tuple(sorted(components, key=_source_of))
        if len(comps) < 2:
            raise ValueError("a composite tuple needs at least two components")
        first = comps[0]
        source, ts, size_bytes = first.source, first.ts, 16 + first.size_bytes
        for comp in comps[1:]:
            if comp.source == source:
                raise ValueError(f"duplicate component for source {source!r}")
            source = comp.source
            if comp.ts > ts:
                ts = comp.ts
            size_bytes += comp.size_bytes
        self._components = comps
        self.ts = ts
        self.size_bytes = size_bytes
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
        for comp in self._components:
            if comp.source == source:
                return comp
        raise KeyError(f"composite tuple over {self.sources} has no component for {source!r}")

    def covers(self, source: str) -> bool:
        """Return True if this tuple contains a component from ``source``."""
        for comp in self._components:
            if comp.source == source:
                return True
        return False

    def value(self, source: str, attr: str) -> object:
        """Return the value of ``source.attr`` carried by this tuple."""
        return self.component(source).value(source, attr)

    def contains(self, other: "StreamTuple") -> bool:
        """Return True if ``other`` is a sub-tuple of this tuple.

        A sub-tuple is a tuple whose components are all components of this
        tuple (same atomic records, not merely equal attribute values).
        """
        mine = self._components
        for comp in other.components:
            for own in mine:
                if own.source == comp.source:
                    if own is not comp and own != comp:
                        return False
                    break
            else:
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


def _laid_out(
    source: str,
    ts: float,
    seq: int,
    layout: _Layout,
    values: Tuple[object, ...],
    size_bytes: int,
) -> AtomicTuple:
    """Build an :class:`AtomicTuple` from values already in ``layout``'s order.

    What ``AtomicTuple(...)`` builds, without its checks and conversions and
    without looking the layout up: for callers that hold the layout already
    (a source generating its stream, unpickling).
    """
    tup = object.__new__(AtomicTuple)
    tup.source = source
    tup.ts = ts
    tup.seq = seq
    tup._layout = layout
    tup._values = values
    tup.size_bytes = size_bytes
    tup._hash = hash((source, seq, ts, tuple(zip(layout, values))))
    return tup


def _restore_atomic(
    source: str,
    ts: float,
    seq: int,
    names: Tuple[str, ...],
    values: Tuple[object, ...],
    size_bytes: int,
) -> AtomicTuple:
    """Rebuild a pickled :class:`AtomicTuple` onto the interned layout of ``names``."""
    return _laid_out(source, ts, seq, _layout(names), values, size_bytes)


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
    try:
        return CompositeTuple(left.components + right.components)
    except ValueError:
        shared = sorted(set(left.sources) & set(right.sources))
        raise ValueError(
            f"cannot join tuples that overlap on source {shared[0]!r}: {left!r} and {right!r}"
        ) from None
