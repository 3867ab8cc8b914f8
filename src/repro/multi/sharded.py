"""The sharded multi-query engine with push-based ingestion.

:class:`ShardedEngine` serves every query of a
:class:`~repro.multi.registry.QueryRegistry` over shared streams: a
placement function assigns each registered plan to one of N
:class:`~repro.multi.shard.ShardEngine` instances, a
:class:`~repro.multi.router.StreamRouter` fans each arriving
:class:`~repro.streams.tuples.AtomicTuple` out only to subscribed shards,
and a :class:`~repro.multi.clock.SharedVirtualClock` keeps window purge
floors and MNS horizons consistent across shards.

Ingestion is **push-based**: sources call :meth:`ShardedEngine.submit` as
events occur, one call per arrival, and :meth:`ShardedEngine.flush` is the
barrier; there is no pre-merged pull loop.  The classic ``run(events)``
loop remains as a convenience built on the push API, so
:func:`~repro.engine.engine.run_workload` can drive a sharded engine through
the same entry point as a single-plan engine.

**How** the receiving shards are driven is a separate axis, the
``drain_mode``, which picks the kind of shard object; the engine drives
either kind through the same calls:

* ``"sync"`` (default): each shard is a local
  :class:`~repro.multi.shard.ShardEngine`, and ``submit`` drains each
  receiving shard before returning.  Fully deterministic — the mode the
  equivalence tests anchor on.
* ``"process"``: each shard is a :class:`~repro.multi.backend.ProcessShard`,
  a worker *process* fed one pickled event frame per routed arrival over a
  pipe, with results, feedback counts, shard snapshots and trace spans
  demultiplexed back to the parent; ``submit`` ships and returns, and
  :meth:`flush` is the barrier.  The mode that scales with cores; see
  ``docs/SCALING.md``.

Both modes preserve the invariant that makes per-query results
bit-identical across them: each shard processes its own feed in
arrival order and plans never span shards, so a drain mode changes *when*
and *where* work happens, never *what* is computed (asserted by the test
suite under both scheduler policies, ``fifo`` and ``jit_aware``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.results import ResultCollector
from repro.metrics import MetricsReport
from repro.multi.backend import (
    ProcessShard,
    ShardWorkerError,
    make_scheduler,
    resolve_drain_mode,
)
from repro.multi.clock import SharedVirtualClock
from repro.multi.partition import round_robin_partition, signature_partition
from repro.multi.registry import QueryRegistry
from repro.multi.router import StreamRouter
from repro.multi.shard import PlanRuntime, ShardEngine, hosting_order
from repro.streams.tuples import AtomicTuple

__all__ = ["QueryReport", "MultiRunReport", "ShardedEngine"]


@dataclass
class QueryReport:
    """One registered query's demultiplexed results."""

    query_id: str
    description: str
    shard_id: int
    results: ResultCollector

    @property
    def result_count(self) -> int:
        """Number of results this query produced."""
        return self.results.count


@dataclass
class MultiRunReport:
    """Aggregated outcome of driving a sharded engine over a workload."""

    n_queries: int
    n_shards: int
    #: The drain mode that produced this report ("sync" or "process").
    drain_mode: str
    events_ingested: int
    queries: Dict[str, QueryReport]
    shard_metrics: Tuple[MetricsReport, ...]
    wall_seconds: float = 0.0
    dropped_events: int = 0

    @property
    def total_results(self) -> int:
        """Results produced across every registered query."""
        return sum(report.result_count for report in self.queries.values())

    @property
    def cpu_units(self) -> float:
        """Modelled CPU cost units summed over all shards."""
        return sum(metrics.cpu_units for metrics in self.shard_metrics)

    @property
    def peak_memory_kb(self) -> float:
        """Sum of per-shard modelled memory peaks, in KB.

        Shard peaks need not coincide in time, so this is an upper bound on
        the true simultaneous peak — the safe number for capacity planning.
        """
        return sum(metrics.peak_memory_kb for metrics in self.shard_metrics)

    def result_counts(self) -> Dict[str, int]:
        """Per-query result counts, in registration order."""
        return {qid: report.result_count for qid, report in self.queries.items()}

    def summary(self) -> str:
        """One-line summary used by examples and benchmarks."""
        return (
            f"{self.n_queries} queries / {self.n_shards} shard(s) [{self.drain_mode}]: "
            f"{self.events_ingested} arrivals -> {self.total_results} results, "
            f"cpu={self.cpu_units:.0f} units, peak_mem={self.peak_memory_kb:.1f} KB, "
            f"wall={self.wall_seconds:.3f}s"
        )


class ShardedEngine:
    """Serves many registered queries across N shard engines.

    Parameters
    ----------
    registry:
        The standing queries to serve.  Plans are built fresh per engine, so
        one registry can back several engines.
    n_shards:
        Number of shard engines to partition the queries across.
    scheduler:
        Operator-scheduler policy: a name accepted by
        :func:`~repro.scheduler.build_scheduler` or a zero-argument factory
        returning a new :class:`OperatorScheduler` (each shard needs its own
        stateful instance).
    keep_results:
        Whether per-query collectors retain result tuples.
    drain_mode:
        How shards are driven: ``"sync"`` (inline, also what ``None``
        means) or ``"process"`` (process-per-shard workers fed over pipes).
    share_subplans:
        Enable common-subexpression sharing on every shard: queries with
        equal canonical sub-plan signatures share one hosted join subtree
        (per-query results stay bit-identical; see ``docs/SHARING.md``).
        It also sets placement (:mod:`repro.multi.partition`): with sharing,
        queries are placed by signature so those that can share a subtree
        land on the same shard; without it, round robin by registration.
    """

    def __init__(
        self,
        registry: QueryRegistry,
        n_shards: int = 1,
        scheduler: Union[str, object] = "fifo",
        keep_results: bool = True,
        drain_mode: Optional[str] = None,
        share_subplans: bool = False,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        if len(registry) == 0:
            raise ValueError("the registry has no registered queries")
        drain_mode = resolve_drain_mode(drain_mode)
        self.registry = registry
        self.n_shards = n_shards
        self.drain_mode = drain_mode
        self.share_subplans = share_subplans
        self.clock = SharedVirtualClock()
        self.router = StreamRouter()
        if drain_mode == "process":
            # Validate the policy argument in the parent, where a bad value
            # raises the same eager ValueError/TypeError the local modes
            # produce (instead of a worker-startup ShardWorkerError).
            make_scheduler(scheduler)
        #: The shards, by id: local ShardEngines (sync), or ProcessShards
        #: whose live ShardEngines exist only in their workers (process).
        self.shards: List[Union[ShardEngine, ProcessShard]] = []
        # Same-signature queries can only share when co-located.
        self._place = signature_partition if share_subplans else round_robin_partition
        #: Queries placed so far — the registration index handed to the
        #: placement function, continued by :meth:`add_query`.
        self._placed = 0
        self._runtimes: Dict[str, PlanRuntime] = {}
        try:
            for index in range(n_shards):
                if drain_mode == "process":
                    # Forked here without waiting: every worker is up (or
                    # coming up) before any host frame goes out.
                    shard = ProcessShard(
                        index, scheduler, self.clock, keep_results, share_subplans
                    )
                else:
                    shard = ShardEngine(
                        shard_id=index,
                        scheduler=make_scheduler(scheduler),
                        clock=self.clock.view(f"shard-{index}"),
                        keep_results=keep_results,
                        share_subplans=share_subplans,
                    )
                self.shards.append(shard)
            # Every shard is named, so every process worker has confirmed its
            # (possibly empty) list before this returns.
            self._host_entries(registry, also_confirm=range(n_shards))
        except BaseException:
            # All or nothing: no worker outlives a failed construction.
            try:
                self._close_shards()
            except ShardWorkerError:
                pass
            raise
        self.events_ingested = 0
        self._closed = False
        #: Optional flight recorder (see :meth:`attach_tracer`).
        self.tracer = None

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.trace.Tracer` to the whole engine.

        The ingestion path opens one trace per submitted event (the
        head-based sampling draw happens on the ingestion thread, so it is
        deterministic for a given workload and seed) and propagates the
        trace context with the event into every subscribed shard — across
        the process boundary in process mode, where each worker runs its
        own span ring on the parent's epoch; its spans merge back (labelled with a worker id) at every
        flush barrier, so one Chrome trace covers the whole fleet.
        """
        self.tracer = tracer
        for shard in self.shards:
            shard.attach_tracer(tracer)

    def _host_entries(self, entries, also_confirm: Iterable[int] = ()) -> None:
        """Place ``entries``, host each shard's ordered list with one call
        (``also_confirm`` shards take part even with nothing placed on
        them), then route.  With sharing, each shard's list is in
        :func:`~repro.multi.shard.hosting_order` (partners first), so the
        inline and the process path host in the same order.

        Hosting is two-phase so process workers build their lists
        concurrently: ``host`` ships a process shard's frame and returns,
        and ``snapshot`` then waits for its worker's reply (a local shard
        has hosted by the time ``host`` returns)."""
        entries = list(entries)
        placements: Dict[int, List] = {shard_id: [] for shard_id in also_confirm}
        for entry in entries:
            shard_id = self._place(entry, self._placed, self.n_shards)
            self._placed += 1
            placements.setdefault(shard_id, []).append(entry)
        if self.share_subplans:
            placements = {
                shard_id: hosting_order(placed)
                for shard_id, placed in placements.items()
            }
        hosted = {
            runtime.query_id: runtime
            for shard_id, placed in placements.items()
            for runtime in self.shards[shard_id].host(placed)
        }
        for shard_id in placements:
            self.shards[shard_id].snapshot()
        for entry in entries:
            runtime = hosted[entry.query_id]
            self._runtimes[entry.query_id] = runtime
            for source in entry.sources:
                self.router.subscribe(source, runtime.shard_id)

    # -- push-based ingestion -------------------------------------------------

    def submit(self, event: AtomicTuple) -> None:
        """Push one event into the engine.

        Synchronous mode drains every receiving shard before returning;
        process mode ships the event to the subscribed shard workers and
        returns immediately (:meth:`flush` is the barrier).
        """
        self._check_open()
        self._dispatch_event(event)

    def flush(self) -> None:
        """Wait until every shard has processed every submitted event.

        Each shard's barrier: a no-op on a local shard, where every event
        has already drained; process workers answer a flush round-trip whose
        reply carries fresh telemetry snapshots (and buffered trace spans) —
        so after ``flush`` every result of every prior submit is in its
        collector, in order.
        """
        self._check_open()
        for shard in self.shards:
            shard.flush()

    # -- internal dispatch ----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the sharded engine is closed")

    def _dispatch_event(self, event: AtomicTuple) -> None:
        self.clock.observe(event.ts)
        self.events_ingested += 1
        shard_ids = self.router.shards_for(event.source)
        if not shard_ids:
            self.router.dropped_events += 1
            return
        shards = self.shards
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            # Hot path: a missing (or constructed-disabled) tracer costs the
            # dispatch exactly one extra attribute load and branch.
            for shard_id in shard_ids:
                shards[shard_id].process_event(event, None)
            return
        ctx = tracer.begin_trace(event, fanout=len(shard_ids))
        try:
            # The context rides along explicitly: process workers activate
            # it so the head-based sampling decision made at ingestion holds
            # wherever the event is drained (a local shard re-activates the
            # context already current on this thread).
            for shard_id in shard_ids:
                shards[shard_id].process_event(event, ctx)
        finally:
            tracer.end_trace(ctx)

    # -- pull-style drivers (built on the push API) ---------------------------

    def run(self, events: Iterable[AtomicTuple]) -> MultiRunReport:
        """Drive a pre-merged event sequence through :meth:`submit` and report."""
        start = time.perf_counter()
        for event in events:
            self.submit(event)
        self.flush()
        return self.report(wall_seconds=time.perf_counter() - start)

    # -- lifecycle of hosted queries ------------------------------------------

    def add_query(self, entry) -> PlanRuntime:
        """Host one more registered query on a live engine.

        The entry must already be registered (``registry.register`` returns
        it); every shard is brought to its barrier first so the new query
        starts observing the stream from a deterministic point.  With sharing
        enabled, the query grafts onto an existing subtree only while its
        shard has processed no event; after that it gets its own plan, so
        it never receives results built from tuples that arrived before it.
        """
        self._check_open()
        if entry.query_id in self._runtimes:
            raise ValueError(f"query {entry.query_id!r} is already hosted")
        self.flush()
        self._host_entries([entry])
        return self._runtimes[entry.query_id]

    def retire_query(self, query_id: str) -> PlanRuntime:
        """Stop serving one registered query and return its archived runtime.

        The owning shard is brought to its barrier before the plan is
        unwired, so the retirement never races
        the drain loop (inline, the submitting thread does both; on a
        process worker the command pipe's FIFO order gives the same
        guarantee).  The router's subscription bookkeeping is decremented
        too, so ``fair_shed`` weights and per-shard fan-out track the live
        query population; events for sources no hosted query consumes any
        more are counted as dropped instead of being routed to a shard that
        would ignore them.  The query's results-so-far stay readable on the
        returned runtime.
        """
        self._check_open()
        runtime = self.runtime_for(query_id)
        shard = self.shards[runtime.shard_id]
        shard.flush()
        retired = shard.retire_plan(query_id)
        del self._runtimes[query_id]
        for source in retired.registered.sources:
            self.router.unsubscribe(
                source,
                runtime.shard_id,
                shard_still_subscribed=shard.consumes(source),
            )
        return retired

    # -- worker lifecycle (process mode) ---------------------------------------

    def worker_liveness(self) -> Dict[int, int]:
        """Per-shard worker liveness (1 = running, 0 = exited/failed).

        Inline shards are always 1: the submitting thread *is* the worker;
        a process worker reads 0 once it has crashed or exited.
        """
        return {
            shard.shard_id: int(shard.health_stats()["alive"]) for shard in self.shards
        }

    def worker_restarts(self) -> Dict[int, int]:
        """Per-shard worker restarts performed by :meth:`restart_worker`."""
        return {shard.shard_id: shard.restarts for shard in self.shards}

    def _process_shard(self, shard_id: int, operation: str) -> ProcessShard:
        if self.drain_mode != "process":
            raise RuntimeError(
                f"drain_mode={self.drain_mode!r} has no process workers; "
                f"{operation} is a process-mode operation"
            )
        return self.shards[shard_id]

    def restart_worker(self, shard_id: int) -> None:
        """Respawn one process worker and re-host its queries (process mode).

        Availability, not state recovery: results already collected stay
        intact, but the replacement starts with empty windows.
        """
        self._process_shard(shard_id, "worker restart").restart_worker()

    # -- health introspection ---------------------------------------------------

    def worker_health(self) -> Dict[int, Dict[str, object]]:
        """Per-shard heartbeat and progress facts for the health monitor:
        each shard's ``health_stats()``, the same keys in either drain mode
        (see :meth:`~repro.multi.shard.ShardEngine.health_stats`)."""
        return {
            index: shard.health_stats() for index, shard in enumerate(self.shards)
        }

    def inject_worker_stall(self, shard_id: int, seconds: float) -> None:
        """Wedge one process worker for ``seconds`` (chaos/test hook).

        See :meth:`~repro.multi.backend.ProcessShard.inject_stall`; only
        meaningful in process mode, where a worker can genuinely hang
        independently of the submitting thread.
        """
        self._process_shard(shard_id, "stall injection").inject_stall(seconds)

    # -- results and reporting ------------------------------------------------

    @property
    def runtimes(self) -> Dict[str, PlanRuntime]:
        """Every hosted query's runtime, by query id, in hosting order."""
        return dict(self._runtimes)

    def runtime_for(self, query_id: str) -> PlanRuntime:
        """The live runtime (plan, context, collector) of one query."""
        try:
            return self._runtimes[query_id]
        except KeyError:
            raise KeyError(
                f"no query {query_id!r}; registered: {list(self._runtimes)}"
            ) from None

    def results_for(self, query_id: str) -> ResultCollector:
        """The demultiplexed result collector of one query."""
        return self.runtime_for(query_id).collector

    def report(self, wall_seconds: float = 0.0) -> MultiRunReport:
        """Snapshot an aggregated report over every query and shard.

        Process-mode metrics come from the workers' last shipped telemetry
        snapshots, refreshed at every flush barrier — call :meth:`flush`
        first for numbers that cover everything submitted.
        """
        queries = {
            query_id: QueryReport(
                query_id=query_id,
                description=runtime.registered.describe(),
                shard_id=runtime.shard_id,
                results=runtime.collector,
            )
            for query_id, runtime in self._runtimes.items()
        }
        return MultiRunReport(
            n_queries=len(self._runtimes),
            n_shards=self.n_shards,
            drain_mode=self.drain_mode,
            events_ingested=self.events_ingested,
            queries=queries,
            shard_metrics=tuple(shard.metrics() for shard in self.shards),
            wall_seconds=wall_seconds,
            dropped_events=self.router.dropped_events,
        )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop shard workers and surface any worker failure (idempotent).

        A worker that died mid-run poisons the dispatch path, but a caller
        that never flushes after its last submit would otherwise exit
        cleanly with truncated results — so ``close`` re-raises the first
        stored worker error (as a
        :class:`~repro.multi.backend.ShardWorkerError` naming the shard)
        after every worker process has been reaped.
        """
        if self._closed:
            return
        self._closed = True
        self._close_shards()

    def _close_shards(self) -> None:
        """Close every shard, then raise the first stored worker failure."""
        error: Optional[ShardWorkerError] = None
        for shard in self.shards:
            try:
                shard.close()
            except ShardWorkerError as failure:
                error = error or failure
        if error is not None:
            raise error

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # An exception is already propagating; don't let a teardown
            # error (often a consequence of the same failure) mask it.
            try:
                self.close()
            except BaseException:
                pass
            return
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedEngine({len(self._runtimes)} queries, {self.n_shards} "
            f"shard(s), {self.drain_mode}, "
            f"ingested={self.events_ingested})"
        )
