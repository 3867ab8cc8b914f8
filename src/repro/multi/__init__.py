"""Sharded multi-query engine with push-based ingestion.

The paper's machinery processes one plan per engine; this subsystem is the
step from reproduction to system: serve *many* standing queries over shared
streams, the ROADMAP's "sharded multi-query engine" and "async / push-based
sources" items.

* :mod:`repro.multi.registry` — :class:`QueryRegistry`, the catalog of
  standing queries plus their physical plan choices.
* :mod:`repro.multi.clock` — :class:`SharedVirtualClock`, keeping window
  purge floors and MNS horizons consistent across shards.
* :mod:`repro.multi.shard` — :class:`ShardEngine`, many plans under one
  scheduler domain (built on the queued engine's machinery).
* :mod:`repro.multi.router` — :class:`StreamRouter`, fanning each event out
  only to subscribed shards.
* :mod:`repro.multi.sharded` — :class:`ShardedEngine`, the serving engine:
  push-based ``submit`` / ``flush`` ingestion, one call per arrival,
  per-query demultiplexed result sinks, and aggregated reports.
* :mod:`repro.multi.backend` — :class:`ProcessShard`, the shard
  ``ShardedEngine(drain_mode="process")`` drives in place of a local
  :class:`ShardEngine`: a worker process fed one pickled frame per routed
  event over a pipe, answering the same calls; it scales with cores
  (``docs/SCALING.md``).
* :mod:`repro.multi.partition` — query-to-shard placement.
* :mod:`repro.multi.workload` — many-queries-over-shared-streams workload
  generation for benchmarks and tests.

Quickstart::

    from repro.multi import QueryRegistry, ShardedEngine

    registry = QueryRegistry()
    registry.register_cql(
        "SELECT * FROM A [RANGE 60 seconds], B [RANGE 60 seconds] "
        "WHERE A.x1 = B.x1"
    )
    with ShardedEngine(registry, n_shards=4, drain_mode="process") as engine:
        for event in source_of_events:
            engine.submit(event)
        engine.flush()
        print(engine.report().summary())
"""

from repro.multi.backend import ProcessShard, ShardWorkerError
from repro.multi.clock import SharedVirtualClock, ShardClock
from repro.multi.partition import round_robin_partition, signature_partition
from repro.multi.registry import QueryRegistry, RegisteredQuery
from repro.multi.router import StreamRouter
from repro.multi.shard import PlanRuntime, ShardEngine, SharedSubplan
from repro.multi.sharded import MultiRunReport, QueryReport, ShardedEngine
from repro.multi.workload import MultiQueryWorkload, generate_multi_query_workload

__all__ = [
    "SharedVirtualClock",
    "ShardClock",
    "QueryRegistry",
    "RegisteredQuery",
    "StreamRouter",
    "PlanRuntime",
    "ShardEngine",
    "SharedSubplan",
    "ShardedEngine",
    "MultiRunReport",
    "QueryReport",
    "ProcessShard",
    "ShardWorkerError",
    "round_robin_partition",
    "signature_partition",
    "MultiQueryWorkload",
    "generate_multi_query_workload",
]
