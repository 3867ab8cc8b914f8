"""Declarative description of a continuous query.

A :class:`ContinuousQuery` captures what the user asked for — which streams,
over which window, joined how, optionally filtered — without committing to
an execution plan.  Plan builders in
:mod:`repro.plans.builder` turn a query plus a plan shape into a wired
operator tree, and the experiment harness constructs queries directly from
the paper's clique-join workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.operators.predicates import JoinPredicate, SelectionPredicate
from repro.streams.generators import CliqueJoinWorkload
from repro.streams.schema import StreamCatalog
from repro.streams.time import Window

__all__ = ["ContinuousQuery"]


@dataclass(frozen=True)
class ContinuousQuery:
    """A continuous query over windowed streams.

    Parameters
    ----------
    sources:
        Names of the participating streams, in declaration order (the order
        matters for the left-deep plan shape: joins are applied left to
        right, as in Table II).
    window:
        The global sliding window (``RANGE`` clause of Figure 1a).
    predicate:
        The join predicate relating the sources.
    selections:
        Optional per-source selection predicates applied above the join tree
        (used by the Figure 9a style plans and by examples).
    catalog:
        Optional catalog used to validate attribute references.
    """

    sources: Tuple[str, ...]
    window: Window
    predicate: JoinPredicate
    selections: Tuple[SelectionPredicate, ...] = ()
    catalog: Optional[StreamCatalog] = None

    def __post_init__(self) -> None:
        if len(self.sources) < 1:
            raise ValueError("a query needs at least one source")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError(f"duplicate sources in query: {self.sources}")
        unknown = self.predicate.sources - set(self.sources)
        if unknown:
            raise ValueError(
                f"join predicate references sources not in the query: {sorted(unknown)}"
            )
        if self.catalog is not None:
            for cond in self.predicate.conditions:
                self.catalog.validate_reference(cond.left.source, cond.left.attribute)
                self.catalog.validate_reference(cond.right.source, cond.right.attribute)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_workload(cls, workload: CliqueJoinWorkload) -> "ContinuousQuery":
        """Build the clique-join query of the paper's evaluation section."""
        return cls(
            sources=workload.names,
            window=workload.window,
            predicate=JoinPredicate.equi(workload.equi_join_conditions()),
            catalog=workload.catalog(),
        )

    # -- accessors ----------------------------------------------------------------

    @property
    def n_sources(self) -> int:
        """Number of participating streams."""
        return len(self.sources)

    def conditions_for_pair(self, a: str, b: str) -> Tuple:
        """All join conditions between sources ``a`` and ``b``."""
        return self.predicate.conditions_between({a}, {b})

    def describe(self) -> str:
        """A compact CQL-flavoured description (for reports and examples)."""
        window_minutes = self.window.length / 60.0
        froms = ", ".join(f"{s} [RANGE {window_minutes:g} minutes]" for s in self.sources)
        where_parts: List[str] = [str(c) for c in self.predicate.conditions]
        where_parts.extend(str(sel) for sel in self.selections)
        where = " AND ".join(where_parts) if where_parts else "TRUE"
        return f"SELECT * FROM {froms} WHERE {where}"
