"""Join and selection predicates.

The paper's evaluation uses clique equi-join predicates (an equality between
one column of each source pair, Section VI) and its extension section uses a
selection ``σ A.x > 200`` as a consumer (Figure 9a).  This module provides:

* :class:`AttributeRef` -- a ``source.attribute`` reference.
* :class:`JoinCondition` -- equality between two attribute references.
* :class:`JoinPredicate` -- a conjunction of join conditions; a binary join
  operator evaluates the subset of conditions that straddle its two inputs.
* :class:`AttributeCompare` / :class:`SelectionPredicate` -- single-tuple
  predicates used by selection operators.
"""

from __future__ import annotations

import operator as _op
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Tuple

from repro.streams.tuples import StreamTuple

__all__ = [
    "AttributeRef",
    "JoinCondition",
    "JoinPredicate",
    "AttributeCompare",
    "SelectionPredicate",
    "COMPARATORS",
]

#: Comparison operators accepted by :class:`AttributeCompare`, keyed by their
#: SQL-ish spelling.
COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": _op.eq,
    "==": _op.eq,
    "!=": _op.ne,
    "<>": _op.ne,
    "<": _op.lt,
    "<=": _op.le,
    ">": _op.gt,
    ">=": _op.ge,
}


@dataclass(frozen=True)
class AttributeRef:
    """A reference to ``source.attribute`` (e.g. ``A.x2``)."""

    source: str
    attribute: str

    def __post_init__(self) -> None:
        if not self.source or not self.attribute:
            raise ValueError("attribute references need a source and an attribute name")

    def value(self, tup: StreamTuple) -> object:
        """Extract this reference's value from ``tup``."""
        return tup.value(self.source, self.attribute)

    def covered_by(self, tup: StreamTuple) -> bool:
        """Return True if ``tup`` carries a component from this source."""
        return tup.covers(self.source)

    def __str__(self) -> str:
        return f"{self.source}.{self.attribute}"


@dataclass(frozen=True)
class JoinCondition:
    """Equality between two attribute references of different sources (``A.x = B.x``)."""

    left: AttributeRef
    right: AttributeRef

    def __post_init__(self) -> None:
        if self.left.source == self.right.source:
            raise ValueError(f"join condition must relate two different sources: {self}")

    @property
    def sources(self) -> FrozenSet[str]:
        """The pair of sources this condition relates."""
        return frozenset((self.left.source, self.right.source))

    def ref_for(self, source: str) -> AttributeRef:
        """Return the reference on the given source's side."""
        if self.left.source == source:
            return self.left
        if self.right.source == source:
            return self.right
        raise KeyError(f"condition {self} does not involve source {source!r}")

    def evaluate(self, left_tuple: StreamTuple, right_tuple: StreamTuple) -> bool:
        """Evaluate the condition over two tuples jointly covering both sources."""
        combined = _locate(self.left, left_tuple, right_tuple)
        other = _locate(self.right, left_tuple, right_tuple)
        return self.left.value(combined) == self.right.value(other)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


def _locate(ref: AttributeRef, a: StreamTuple, b: StreamTuple) -> StreamTuple:
    """Return whichever of ``a``/``b`` carries ``ref``'s source."""
    if a.covers(ref.source):
        return a
    if b.covers(ref.source):
        return b
    raise KeyError(f"neither operand covers source {ref.source!r} required by {ref}")


@dataclass(frozen=True)
class JoinPredicate:
    """A conjunction of join conditions over any number of sources.

    A query's full predicate (e.g. the clique predicate of Section VI) is one
    :class:`JoinPredicate`; each binary join operator in a plan extracts, at
    construction time, the conditions that straddle its two inputs via
    :meth:`conditions_between`.
    """

    conditions: Tuple[JoinCondition, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.conditions, tuple):
            object.__setattr__(self, "conditions", tuple(self.conditions))

    @classmethod
    def equi(
        cls, pairs: Iterable[Tuple[Tuple[str, str], Tuple[str, str]]]
    ) -> "JoinPredicate":
        """Build a pure equi-join predicate from ``((src, col), (src, col))`` pairs."""
        return cls(
            tuple(
                JoinCondition(AttributeRef(*left), AttributeRef(*right))
                for left, right in pairs
            )
        )

    @property
    def sources(self) -> FrozenSet[str]:
        """All sources mentioned by any condition."""
        out = set()
        for cond in self.conditions:
            out |= cond.sources
        return frozenset(out)

    def conditions_between(
        self, left_sources: Iterable[str], right_sources: Iterable[str]
    ) -> Tuple[JoinCondition, ...]:
        """Conditions with one side in ``left_sources`` and the other in ``right_sources``."""
        left_set = frozenset(left_sources)
        right_set = frozenset(right_sources)
        if left_set & right_set:
            raise ValueError(
                f"operator inputs overlap on sources {sorted(left_set & right_set)}"
            )
        selected: List[JoinCondition] = []
        for cond in self.conditions:
            a, b = cond.left.source, cond.right.source
            if (a in left_set and b in right_set) or (a in right_set and b in left_set):
                selected.append(cond)
        return tuple(selected)

    def __str__(self) -> str:
        return " AND ".join(str(c) for c in self.conditions) or "TRUE"


@dataclass(frozen=True)
class AttributeCompare:
    """A single-tuple comparison against a constant (``A.x > 200``)."""

    ref: AttributeRef
    comparator: str
    value: object

    def __post_init__(self) -> None:
        if self.comparator not in COMPARATORS:
            raise ValueError(
                f"unknown comparator {self.comparator!r}; expected one of {sorted(COMPARATORS)}"
            )

    def evaluate(self, tup: StreamTuple) -> bool:
        """Evaluate the comparison against the value carried by ``tup``."""
        return COMPARATORS[self.comparator](self.ref.value(tup), self.value)

    def __str__(self) -> str:
        return f"{self.ref} {self.comparator} {self.value!r}"


@dataclass(frozen=True)
class SelectionPredicate:
    """A conjunction of single-tuple comparisons used by selection operators."""

    comparisons: Tuple[AttributeCompare, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.comparisons, tuple):
            object.__setattr__(self, "comparisons", tuple(self.comparisons))
        if not self.comparisons:
            raise ValueError("a selection predicate needs at least one comparison")

    def evaluate(self, tup: StreamTuple) -> bool:
        """Evaluate the conjunction against ``tup``."""
        return all(c.evaluate(tup) for c in self.comparisons)

    @property
    def sources(self) -> FrozenSet[str]:
        """All sources referenced by the predicate."""
        return frozenset(c.ref.source for c in self.comparisons)

    def __str__(self) -> str:
        return " AND ".join(str(c) for c in self.comparisons)
