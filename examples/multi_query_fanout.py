#!/usr/bin/env python3
"""Multi-query serving: several CQL queries pushed events over shared streams.

A miniature market-surveillance deployment: three shared streams (``bids``,
``asks``, ``trades``) feed six standing CQL queries — matching engines,
trade-confirmation joins, a three-way audit — registered in one
:class:`~repro.multi.QueryRegistry` and served by a 2-shard
:class:`~repro.multi.ShardedEngine` behind a
:class:`~repro.serve.StreamServer`.  Events are *pushed* one at a time
through the server as they occur (no pre-merged pull loop), and each query's
results come back demultiplexed on its own sink.  Halfway through the stream
the server retires one query and hosts a new one on the live engine.
Each query's served results are then checked against the same query run
alone through a synchronous engine over the events it saw: the whole stream,
the first half (the retired query) or the second half (the added one).

Run with::

    python examples/multi_query_fanout.py
"""

from __future__ import annotations

import time

from repro.engine import run_workload
from repro.multi import QueryRegistry, ShardedEngine
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF
from repro.serve import StreamServer
from repro.streams.generators import UniformValueGenerator
from repro.streams.schema import SourceSchema, StreamCatalog
from repro.streams.sources import PoissonArrivals, StreamSource, merge_sources

#: Instrument ids are drawn from [1..SYMBOLS]; a smaller universe means more
#: join matches per arrival.
SYMBOLS = 25

QUERIES = [
    # Matching engine: a bid and an ask on the same symbol within the window.
    ("match", "SELECT * FROM bids [RANGE 90 seconds], asks [RANGE 90 seconds] "
              "WHERE bids.sym = asks.sym", STRATEGY_JIT),
    # Trade confirmation: a trade paired with the bid that could have caused it.
    ("bid_fill", "SELECT * FROM bids [RANGE 90 seconds], trades [RANGE 90 seconds] "
                 "WHERE bids.sym = trades.sym", STRATEGY_JIT),
    # ... and with the ask side.
    ("ask_fill", "SELECT * FROM asks [RANGE 90 seconds], trades [RANGE 90 seconds] "
                 "WHERE asks.sym = trades.sym", STRATEGY_JIT),
    # Full audit: bid, ask and trade on one symbol inside one window.
    ("audit", "SELECT * FROM bids [RANGE 90 seconds], asks [RANGE 90 seconds], "
              "trades [RANGE 90 seconds] WHERE bids.sym = asks.sym "
              "AND asks.sym = trades.sym", STRATEGY_JIT),
    # Venue-crossing surveillance on the quote streams (REF baseline plan).
    ("cross", "SELECT * FROM bids [RANGE 90 seconds], asks [RANGE 90 seconds] "
              "WHERE bids.venue = asks.venue", STRATEGY_REF),
    # Same-venue trade confirmations.
    ("venue_fill", "SELECT * FROM asks [RANGE 90 seconds], trades [RANGE 90 seconds] "
                   "WHERE asks.venue = trades.venue", STRATEGY_REF),
]

#: Retired halfway through the stream ...
RETIRED = "cross"
#: ... and replaced by a query on large bids filled at their own venue.
ADDED = ("big_bid_fill", "SELECT * FROM bids [RANGE 90 seconds], trades [RANGE 90 seconds] "
                         "WHERE bids.venue = trades.venue AND bids.sym > 20", STRATEGY_JIT)


def build_sources() -> tuple[StreamCatalog, list[StreamSource]]:
    """Three Poisson stream sources sharing the (sym, venue) vocabulary."""
    catalog = StreamCatalog.from_schemas(
        [
            SourceSchema.of("bids", ("sym", "venue")),
            SourceSchema.of("asks", ("sym", "venue")),
            SourceSchema.of("trades", ("sym", "venue")),
        ]
    )
    sources = [
        StreamSource(
            schema=catalog.schema(name),
            arrivals=PoissonArrivals(rate),
            value_generator=UniformValueGenerator(high=SYMBOLS),
            seed=17,
        )
        for name, rate in (("bids", 1.2), ("asks", 1.2), ("trades", 0.4))
    ]
    return catalog, sources


def main() -> None:
    catalog, sources = build_sources()

    registry = QueryRegistry()
    for query_id, text, strategy in QUERIES:
        registry.register_cql(
            text, catalog=catalog, query_id=query_id, strategy=strategy,
            use_hash_index=True,
        )
    print(f"Registered {len(registry)} standing queries over {sorted(registry.sources)}:")
    for entry in registry:
        print("  ", entry.describe())
    print()

    # Serve them on two shards; events are *pushed* as they occur.  Halfway
    # through, the server is flushed, one query leaves and another joins the
    # live engine.
    events = merge_sources(sources, duration=600.0)
    half = len(events) // 2
    engine = ShardedEngine(registry, n_shards=2, scheduler="jit_aware")
    with StreamServer(engine) as server:
        start = time.perf_counter()
        for event in events[:half]:
            server.submit(event)
        server.flush()
        retired = server.retire_query(RETIRED)
        query_id, text, strategy = ADDED
        added = registry.register_cql(
            text, catalog=catalog, query_id=query_id, strategy=strategy, use_hash_index=True
        )
        server.add_query(added)
        for event in events[half:]:
            server.submit(event)
        server.flush()
        report = engine.report(wall_seconds=time.perf_counter() - start)

        print(
            f"Pushed {report.events_ingested} events; retired {RETIRED!r} "
            f"after {half} of them and added {query_id!r}; per-query results:"
        )
        print(
            f"  {RETIRED:<12} shard {retired.shard_id}: "
            f"{retired.collector.count:>6} results (retired)"
        )
        for query_id, count in report.result_counts().items():
            shard = engine.runtime_for(query_id).shard_id
            print(f"  {query_id:<12} shard {shard}: {count:>6} results")
        print()
        for shard_id, metrics in enumerate(report.shard_metrics):
            print(
                f"  shard {shard_id}: {metrics.results_produced} results, "
                f"cpu={metrics.cpu_units:.0f} units, "
                f"peak_mem={metrics.peak_memory_kb:.1f} KB"
            )
        print()
        print(report.summary())

        # Sharding, push ingestion and live add/retire change where work
        # runs, never results: each query matches a standalone run over the
        # events it was hosted for.
        for entry in registry:
            if entry.query_id == RETIRED:
                seen, served = events[:half], retired.collector
            elif entry is added:
                seen, served = events[half:], server.results_for(entry.query_id)
            else:
                seen, served = events, server.results_for(entry.query_id)
            subscribed = [event for event in seen if event.source in entry.sources]
            alone = run_workload(entry.build_plan(), subscribed, entry.query.window.length)
            assert served.multiset() == alone.results.multiset(), (
                f"query {entry.query_id} diverged from its standalone run"
            )
    print()
    print(f"All {len(registry)} queries match their standalone runs.")


if __name__ == "__main__":
    main()
