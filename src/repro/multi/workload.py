"""Multi-query workloads: many standing queries over shared streams.

The single-query benchmarks replay one clique-join query; a multi-query
serving benchmark needs the opposite shape — a *small* set of shared streams
carrying a *large* population of registered queries, each subscribing to a
subset of the streams.  :class:`MultiQueryWorkload` derives both from one
:class:`~repro.streams.generators.CliqueJoinWorkload`: the base workload
supplies the catalog, the per-pair join columns and the merged event
sequence, and each generated query joins a deterministic *neighborhood* of
consecutive sources (on a ring) using the base workload's clique columns —
the locality pattern of real query populations, where most standing queries
watch the streams of one domain.

Because every query is a sub-clique of the same base predicate, any two
variants of the serving engine (shard counts, threading, ready strategies)
must produce identical per-query results — the property the equivalence
tests and the benchmark's cross-checks assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Tuple

from repro.operators.predicates import JoinPredicate
from repro.plans.query import ContinuousQuery
from repro.streams.generators import CliqueJoinWorkload, generate_clique_workload
from repro.streams.tuples import AtomicTuple

__all__ = ["MultiQueryWorkload", "generate_multi_query_workload"]


@dataclass(frozen=True)
class MultiQueryWorkload:
    """``n_queries`` standing sub-clique queries over one shared stream set.

    Parameters
    ----------
    base:
        The shared-stream substrate: its sources, window, value ranges and
        arrival processes are common to every query.
    n_queries:
        Number of standing queries to generate.
    sources_per_query:
        Cycle of query widths; query ``k`` joins
        ``sources_per_query[k % len]`` sources.  The default mixes binary
        and three-way joins, the typical shape of a routing/monitoring
        query population.
    """

    base: CliqueJoinWorkload
    n_queries: int
    sources_per_query: Tuple[int, ...] = (2, 2, 3)

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise ValueError(f"need at least one query, got {self.n_queries}")
        for width in self.sources_per_query:
            if not 2 <= width <= self.base.n_sources:
                raise ValueError(
                    f"query width {width} outside [2, {self.base.n_sources}]"
                )

    def query_sources(self, k: int) -> Tuple[str, ...]:
        """The source subset of query ``k`` (deterministic in ``k``).

        Queries subscribe to *neighborhoods* on a ring of the base sources:
        query ``k`` joins ``width`` consecutive sources starting at ``k mod
        n_sources``.  Neighborhoods overlap (every source serves many
        standing queries) but exhibit the locality real query populations
        have: most queries touch streams of one domain.
        """
        width = self.sources_per_query[k % len(self.sources_per_query)]
        names = self.base.names
        start = k % len(names)
        return tuple(names[(start + i) % len(names)] for i in range(width))

    def query(self, k: int) -> ContinuousQuery:
        """Build standing query ``k``: a sub-clique join of its source subset."""
        return self._query(k, self.base.pair_columns, self.base.catalog())

    def _query(self, k: int, pair_columns, catalog) -> ContinuousQuery:
        sources = self.query_sources(k)
        conditions = []
        for a, b in combinations(sources, 2):
            left, right = sorted((a, b))
            column = pair_columns[frozenset((left, right))]
            conditions.append(((left, column), (right, column)))
        return ContinuousQuery(
            sources=sources,
            window=self.base.window,
            predicate=JoinPredicate.equi(conditions),
            catalog=catalog,
        )

    def queries(self) -> List[ContinuousQuery]:
        """All ``n_queries`` standing queries, in registration order.

        They share one catalog object (it is only ever read once a query is
        built), so a pickled frame of registrations carries it once.
        """
        pair_columns, catalog = self.base.pair_columns, self.base.catalog()
        return [self._query(k, pair_columns, catalog) for k in range(self.n_queries)]

    def events(self) -> List[AtomicTuple]:
        """The shared, merged, time-ordered arrival sequence."""
        return self.base.events()

    def describe(self) -> str:
        """One-line description for benchmark output and reports."""
        return (
            f"{self.n_queries} queries (widths {self.sources_per_query}) over "
            f"{self.base.describe()}"
        )


def generate_multi_query_workload(
    n_queries: int,
    n_sources: int = 8,
    rate: float = 1.0,
    window_seconds: float = 30.0,
    dmax: int = 50,
    duration: float = 600.0,
    seed: int = 0,
    sources_per_query: Tuple[int, ...] = (2, 2, 3),
) -> MultiQueryWorkload:
    """Convenience constructor mirroring :func:`generate_clique_workload`."""
    return MultiQueryWorkload(
        base=generate_clique_workload(
            n_sources=n_sources,
            rate=rate,
            window_seconds=window_seconds,
            dmax=dmax,
            duration=duration,
            seed=seed,
        ),
        n_queries=n_queries,
        sources_per_query=sources_per_query,
    )
