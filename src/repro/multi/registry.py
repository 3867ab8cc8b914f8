"""The query registry: many standing queries, one serving engine.

A production continuous-query system serves thousands of registered queries
over a shared set of streams.  :class:`QueryRegistry` is the catalog of those
standing queries: each registration pairs a declarative
:class:`~repro.plans.query.ContinuousQuery` with the physical choices needed
to build its plan (tree shape, REF/JIT/DOE strategy, JIT configuration, hash
indexing).  The registry itself never builds operators — the sharded engine
calls :meth:`RegisteredQuery.build_plan` once per hosting shard, so one
registry can back any number of engines without sharing mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Union

from repro.core.config import JITConfig
from repro.operators.base import PORT_INPUT
from repro.operators.tee import TeeOperator
from repro.plans.builder import (
    PLAN_LEFT_DEEP,
    STRATEGY_DOE,
    STRATEGY_JIT,
    STRATEGY_REF,
    ShapeNode,
    build_overlay_plan,
    build_xjoin_plan,
)
from repro.plans.cql import parse_cql
from repro.plans.plan import ExecutionPlan
from repro.plans.query import ContinuousQuery
from repro.plans.signature import (
    SubplanSignature,
    signature_key,
    subplan_signature,
)
from repro.streams.schema import StreamCatalog

__all__ = ["RegisteredQuery", "QueryRegistry"]

_STRATEGIES = (STRATEGY_REF, STRATEGY_JIT, STRATEGY_DOE)


@dataclass(frozen=True)
class RegisteredQuery:
    """One standing query plus the physical plan choices made at registration.

    Parameters
    ----------
    query_id:
        Unique identifier within the registry; used to demultiplex per-query
        result sinks and reports.
    query:
        The declarative continuous query (sources, window, predicate).
    shape:
        Plan-shape constant or explicit nested-tuple shape for
        :func:`~repro.plans.builder.build_xjoin_plan`.
    strategy:
        ``STRATEGY_REF``, ``STRATEGY_JIT`` or ``STRATEGY_DOE``.
    jit_config:
        Optional JIT configuration (ignored for REF).
    use_hash_index:
        Build hash indexes on the equi-join keys of every state.
    """

    query_id: str
    query: ContinuousQuery
    shape: Union[str, ShapeNode] = PLAN_LEFT_DEEP
    strategy: str = STRATEGY_JIT
    jit_config: Optional[JITConfig] = None
    use_hash_index: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {_STRATEGIES}"
            )
        if self.query.n_sources < 2:
            raise ValueError(
                f"query {self.query_id!r} has a single source; the multi-query "
                "engine serves join queries (X-Join plans need >= 2 sources)"
            )

    @property
    def sources(self) -> frozenset:
        """The stream names this query subscribes to."""
        return frozenset(self.query.sources)

    def build_plan(self) -> ExecutionPlan:
        """Build a fresh, unattached execution plan for this query.

        Each call constructs new operators, so several engines (or shards)
        can host the same registration without sharing operator state.
        """
        return build_xjoin_plan(
            self.query,
            shape=self.shape,
            strategy=self.strategy,
            jit_config=self.jit_config,
            use_hash_index=self.use_hash_index,
        )

    # -- sub-plan sharing -----------------------------------------------------

    def subplan_signature(self) -> SubplanSignature:
        """The canonical signature of this registration's join subtree.

        Registrations with equal signatures build operationally identical
        join subtrees and can share one hosted instance (selections stay
        per-query, see :meth:`build_overlay_plan`).  The signature is
        computed once and cached on the frozen instance.
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = subplan_signature(
                self.query,
                shape=self.shape,
                strategy=self.strategy,
                jit_config=self.jit_config,
                use_hash_index=self.use_hash_index,
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def signature_key(self) -> str:
        """Short stable hex digest of :meth:`subplan_signature`."""
        return signature_key(self.subplan_signature())

    def build_join_plan(self) -> ExecutionPlan:
        """The shareable join subtree alone, without the query's selections."""
        return build_xjoin_plan(
            self.query,
            shape=self.shape,
            strategy=self.strategy,
            jit_config=self.jit_config,
            use_hash_index=self.use_hash_index,
            apply_selections=False,
        )

    def build_shared_plan(self) -> ExecutionPlan:
        """The join subtree crowned with a :class:`TeeOperator` fan-out.

        The tee starts with no subscribers; the hosting shard attaches one
        per grafted query.  Fresh operators per call, like
        :meth:`build_plan`.
        """
        base = self.build_join_plan()
        tee = TeeOperator("Tee", sources=base.root.output_sources())
        tee.connect_producer(PORT_INPUT, base.root)
        return ExecutionPlan(
            root=tee,
            operators=base.operators + (tee,),
            routing=base.routing,
            description=f"shared/{base.description}",
        )

    def build_overlay_plan(self) -> Optional[ExecutionPlan]:
        """This query's private selection chain (or ``None``)."""
        return build_overlay_plan(self.query, strategy=self.strategy)

    def describe(self) -> str:
        """One-line description used by reports and the example scripts."""
        return f"{self.query_id} [{self.strategy}]: {self.query.describe()}"


class QueryRegistry:
    """An insertion-ordered catalog of registered continuous queries."""

    def __init__(self) -> None:
        self._entries: Dict[str, RegisteredQuery] = {}

    def register(
        self,
        query: ContinuousQuery,
        query_id: Optional[str] = None,
        shape: Union[str, ShapeNode] = PLAN_LEFT_DEEP,
        strategy: str = STRATEGY_JIT,
        jit_config: Optional[JITConfig] = None,
        use_hash_index: bool = False,
    ) -> RegisteredQuery:
        """Register ``query`` and return its :class:`RegisteredQuery` entry.

        ``query_id`` defaults to ``q0``, ``q1``, ... in registration order;
        explicit ids must be unique within the registry.
        """
        if query_id is None:
            query_id = f"q{len(self._entries)}"
            while query_id in self._entries:
                query_id = f"q{len(self._entries)}_{query_id}"
        if query_id in self._entries:
            raise ValueError(f"query id {query_id!r} is already registered")
        entry = RegisteredQuery(
            query_id=query_id,
            query=query,
            shape=shape,
            strategy=strategy,
            jit_config=jit_config,
            use_hash_index=use_hash_index,
        )
        self._entries[query_id] = entry
        return entry

    def register_cql(
        self,
        text: str,
        catalog: Optional[StreamCatalog] = None,
        **kwargs,
    ) -> RegisteredQuery:
        """Parse a CQL-style query string and register it.

        Keyword arguments are forwarded to :meth:`register` (``query_id``,
        ``shape``, ``strategy``, ``jit_config``, ``use_hash_index``).
        """
        return self.register(parse_cql(text, catalog=catalog), **kwargs)

    # -- lookup --------------------------------------------------------------

    def get(self, query_id: str) -> RegisteredQuery:
        """Return the registration for ``query_id``."""
        try:
            return self._entries[query_id]
        except KeyError:
            raise KeyError(
                f"no query registered under {query_id!r}; known ids: {self.ids}"
            ) from None

    @property
    def ids(self) -> List[str]:
        """All query ids in registration order."""
        return list(self._entries)

    @property
    def sources(self) -> Set[str]:
        """The union of stream names subscribed to by any registered query."""
        out: Set[str] = set()
        for entry in self._entries.values():
            out.update(entry.sources)
        return out

    def share_groups(self) -> Dict[SubplanSignature, List[str]]:
        """Query ids grouped by canonical sub-plan signature.

        Groups (and the ids within each) are in registration order.  A group
        with more than one member is a sharing opportunity: its queries build
        operationally identical join subtrees.
        """
        groups: Dict[SubplanSignature, List[str]] = {}
        for entry in self._entries.values():
            groups.setdefault(entry.subplan_signature(), []).append(entry.query_id)
        return groups

    def __iter__(self) -> Iterator[RegisteredQuery]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, query_id: object) -> bool:
        return query_id in self._entries

    def __repr__(self) -> str:
        return f"QueryRegistry({len(self._entries)} queries over {sorted(self.sources)})"
