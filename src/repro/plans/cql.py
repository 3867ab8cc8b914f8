"""A small CQL-style front end (Figure 1a syntax).

The paper expresses continuous queries in CQL [1]; its running example is::

    SELECT * FROM
      A [RANGE 5 minutes],
      B [RANGE 5 minutes],
      C [RANGE 5 minutes]
    WHERE A.x = B.x
      AND A.y = C.y

:func:`parse_cql` accepts this dialect — ``SELECT *``, a ``FROM`` list of
sources each with a ``[RANGE n unit]`` window, and a ``WHERE`` conjunction
of equi-join conditions (``A.x = B.y``) and constant comparisons (``A.x >
200``, any of ``= == != <> < <= > >=``) — and produces a
:class:`~repro.plans.query.ContinuousQuery`.  It is intentionally minimal:
enough to express every query used in the paper and the examples, not a full
CQL implementation.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.operators.predicates import (
    AttributeCompare,
    AttributeRef,
    JoinCondition,
    JoinPredicate,
    SelectionPredicate,
)
from repro.plans.query import ContinuousQuery
from repro.streams.schema import StreamCatalog
from repro.streams.time import Window

__all__ = ["parse_cql", "CQLSyntaxError"]

_RANGE_RE = re.compile(
    r"^(?P<source>\w+)\s*\[\s*RANGE\s+(?P<amount>\d+(?:\.\d+)?)\s*(?P<unit>\w+)\s*\]$",
    re.IGNORECASE,
)
_REF_RE = re.compile(r"^(?P<source>\w+)\.(?P<attr>\w+)$")
_COND_RE = re.compile(
    r"^(?P<left>\w+\.\w+)\s*(?P<op>=|==|!=|<>|<=|>=|<|>)\s*(?P<right>.+)$"
)

_UNIT_SECONDS = {
    "second": 1.0,
    "seconds": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "minute": 60.0,
    "minutes": 60.0,
    "min": 60.0,
    "mins": 60.0,
    "hour": 3600.0,
    "hours": 3600.0,
}


class CQLSyntaxError(ValueError):
    """Raised when a query string cannot be parsed."""


def _split_clauses(text: str) -> Tuple[str, str, Optional[str]]:
    """Split a query into its SELECT, FROM and optional WHERE parts."""
    squashed = " ".join(text.split())
    match = re.match(
        r"^\s*SELECT\s+(?P<select>.+?)\s+FROM\s+(?P<from>.+?)(?:\s+WHERE\s+(?P<where>.+))?\s*;?\s*$",
        squashed,
        re.IGNORECASE,
    )
    if not match:
        raise CQLSyntaxError(f"cannot parse query: {text!r}")
    return match.group("select"), match.group("from"), match.group("where")


def _parse_from(from_clause: str) -> Tuple[List[str], float]:
    sources: List[str] = []
    window_seconds: Optional[float] = None
    for part in (p.strip() for p in from_clause.split(",")):
        match = _RANGE_RE.match(part)
        if not match:
            raise CQLSyntaxError(
                f"FROM item {part!r} must look like 'A [RANGE 5 minutes]'"
            )
        unit = match.group("unit").lower()
        if unit not in _UNIT_SECONDS:
            raise CQLSyntaxError(f"unknown RANGE unit {match.group('unit')!r}")
        seconds = float(match.group("amount")) * _UNIT_SECONDS[unit]
        if window_seconds is None:
            window_seconds = seconds
        elif window_seconds != seconds:
            # The library assumes a single global window (as the paper does);
            # differing windows are rejected rather than silently unified.
            raise CQLSyntaxError("all sources must share the same RANGE window")
        sources.append(match.group("source"))
    if not sources or window_seconds is None:
        raise CQLSyntaxError("FROM clause lists no sources")
    return sources, window_seconds


def _parse_value(text: str) -> object:
    text = text.strip()
    if (text.startswith("'") and text.endswith("'")) or (
        text.startswith('"') and text.endswith('"')
    ):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise CQLSyntaxError(f"cannot parse constant {text!r}") from None


def parse_cql(text: str, catalog: Optional[StreamCatalog] = None) -> ContinuousQuery:
    """Parse a CQL-style query string into a :class:`ContinuousQuery`.

    Parameters
    ----------
    text:
        The query text (see the module docstring for the accepted dialect).
    catalog:
        Optional stream catalog used to validate attribute references.
    """
    select_clause, from_clause, where_clause = _split_clauses(text)
    sources, window_seconds = _parse_from(from_clause)

    if select_clause.strip() != "*":
        raise CQLSyntaxError(f"only SELECT * is supported, got SELECT {select_clause.strip()}")

    join_conditions: List[JoinCondition] = []
    comparisons: List[AttributeCompare] = []
    if where_clause:
        for conjunct in re.split(r"\s+AND\s+", where_clause, flags=re.IGNORECASE):
            match = _COND_RE.match(conjunct.strip())
            if not match:
                raise CQLSyntaxError(f"cannot parse WHERE conjunct {conjunct!r}")
            left_ref_match = _REF_RE.match(match.group("left"))
            assert left_ref_match is not None
            left_ref = AttributeRef(left_ref_match.group("source"), left_ref_match.group("attr"))
            op = match.group("op")
            right_text = match.group("right").strip()
            right_ref_match = _REF_RE.match(right_text)
            if right_ref_match and right_ref_match.group("source") in sources:
                right_ref = AttributeRef(
                    right_ref_match.group("source"), right_ref_match.group("attr")
                )
                if op not in ("=", "=="):
                    raise CQLSyntaxError(
                        f"join conjunct {conjunct.strip()!r} must be an equality"
                    )
                join_conditions.append(JoinCondition(left_ref, right_ref))
            else:
                comparisons.append(AttributeCompare(left_ref, op, _parse_value(right_text)))

    selections = (SelectionPredicate(tuple(comparisons)),) if comparisons else ()
    return ContinuousQuery(
        sources=tuple(sources),
        window=Window(window_seconds),
        predicate=JoinPredicate(tuple(join_conditions)),
        selections=selections,
        catalog=catalog,
    )
