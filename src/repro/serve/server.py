"""The production serving front-end: bounded ingestion around an engine.

:class:`StreamServer` is what stands between a hot source and the engine.
Calling an engine's ``submit`` directly buffers unboundedly and gives
overload no policy; the server adds, in order, on every submitted event:

1. **Admission** — the installed :data:`~repro.serve.admission.
   AdmissionPolicy` can refuse the event outright (counted, never silent).
2. **Bounded buffering** — the event enters a
   :class:`~repro.serve.buffers.BoundedIngestionBuffer`.  When the buffer
   is full, the configured :class:`~repro.serve.buffers.OverloadPolicy`
   decides: ``block`` makes the submitter pay for draining first
   (backpressure as work — or a genuine coroutine suspension through
   :class:`~repro.serve.aio.AsyncStreamServer`), ``drop_oldest`` /
   ``fair_shed`` evict a buffered event, accounted per source and policy.
3. **Ordered delivery** — :meth:`drain` moves buffered events into the
   wrapped engine strictly in arrival order, so everything that is
   delivered is processed exactly as an unbuffered run would process it
   (the equivalence tests pin this bit-identically).

Telemetry is always on: a :class:`~repro.serve.telemetry.TelemetryRegistry`
(owned or shared) carries counters for every accept/shed/reject/delivery,
pull-gauges over the live buffer and shard queues, an ingest→emit latency
histogram with p50/p95/p99, and the MNS suspension/resumption totals each
shard counts where its feedback is delivered.  Latency is *virtual*: the lag
between the server's ingestion watermark (the newest accepted timestamp)
and a result's timestamp at the moment it is emitted — the serving-layer
counterpart of the :class:`~repro.multi.clock.SharedVirtualClock`
watermark, measurable identically in the sync and process drain modes.

The server fronts a :class:`~repro.multi.ShardedEngine` and reads every
shard through one surface — a local :class:`~repro.multi.shard.ShardEngine`
or a process worker's :class:`~repro.multi.backend.ProcessShardProxy`, which
answer to the same names.  A single plan is served as a one-query registry
on one sync shard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.multi.sharded import ShardedEngine
from repro.serve.admission import AdmissionPolicy
from repro.serve.buffers import (
    OFFER_BLOCKED,
    BoundedIngestionBuffer,
    OverloadPolicy,
)
from repro.serve.telemetry import TelemetryRegistry
from repro.streams.sources import StreamEvent

__all__ = ["ServingReport", "StreamServer", "METRIC_DOC"]

#: Every metric family the server registers: name -> (kind, labels, meaning).
#: The only place a family's kind, labels and help live: the server
#: registers from it, ``docs/SERVING.md`` renders it (a test parses the two
#: tables against each other) and the telemetry tests assert each entry
#: exists in the exposition.
METRIC_DOC: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "serve_ingested_total": (
        "counter", ("source",), "Events accepted into the ingestion buffer."
    ),
    "serve_delivered_total": (
        "counter", ("source",), "Buffered events delivered to the engine in order."
    ),
    "serve_shed_total": (
        "counter", ("policy", "source"), "Events shed by the overload policy."
    ),
    "serve_rejected_total": (
        "counter", (), "Events refused by the admission policy."
    ),
    "serve_results_total": (
        "counter", (), "Query results emitted by the wrapped engine."
    ),
    "serve_backpressure_engagements_total": (
        "counter", (), "Times a full buffer forced the block policy to drain."
    ),
    "serve_events_per_second": (
        "gauge", (), "Delivered events per wall-clock second since the server started."
    ),
    "serve_buffer_occupancy": (
        "gauge", ("source",), "Events currently buffered, per source."
    ),
    "serve_buffer_capacity": (
        "gauge", (), "Configured bound of the ingestion buffer."
    ),
    "serve_shard_queue_depth": (
        "gauge", ("shard",), "Tuples in each shard's inter-operator queues right now."
    ),
    "serve_ingest_watermark": (
        "gauge", (), "Newest accepted event timestamp (virtual seconds)."
    ),
    "serve_result_latency": (
        "histogram", (),
        "Virtual ingest-to-emit latency of results: ingestion watermark minus "
        "result timestamp at emission (buckets/sum/count plus "
        "serve_result_latency_quantile{quantile=\"0.5|0.95|0.99\"}).",
    ),
    "serve_suspensions_total": (
        "gauge", ("shard",), "MNS suspension feedback messages (suspend + mark)."
    ),
    "serve_resumptions_total": (
        "gauge", ("shard",), "MNS resumption feedback messages (resume + unmark)."
    ),
    "serve_suspension_rate_per_second": (
        "gauge", (), "Suspension messages per wall-clock second since start."
    ),
    "serve_resumption_rate_per_second": (
        "gauge", (), "Resumption messages per wall-clock second since start."
    ),
    "serve_scheduler_steps_total": (
        "gauge", ("shard",), "Scheduling decisions taken, per shard (from the cost model)."
    ),
    "serve_scheduler_boosts_granted_total": (
        "gauge", ("shard",), "jit_aware boosts granted by feedback, per shard (0 for other policies)."
    ),
    "serve_scheduler_boosted_servings_total": (
        "gauge", ("shard",), "Scheduling decisions served from the boosted band, per shard."
    ),
    "serve_shared_subplans_active": (
        "gauge", ("shard",),
        "Shared join sub-plans currently hosted, per shard (0 without sharing).",
    ),
    "serve_shared_subplan_hits_total": (
        "gauge", ("shard",),
        "Query registrations grafted onto an already-hosted shared sub-plan, per shard.",
    ),
    "serve_shard_steps_per_event": (
        "gauge", ("shard",),
        "Scheduler steps per processed event, per shard — the work-amplification "
        "ratio sub-plan sharing drives down.",
    ),
    "serve_shard_worker_alive": (
        "gauge", ("shard",),
        "Shard worker liveness: 1 while the worker process is running "
        "and healthy (inline shards always read 1 — the submitter is the worker).",
    ),
    "serve_shard_worker_restarts_total": (
        "gauge", ("shard",),
        "Process workers respawned via restart_worker, per shard (0 for the "
        "sync drain mode).",
    ),
    "serve_uptime_seconds": (
        "gauge", (), "Wall-clock seconds since the server was constructed."
    ),
    # -- flight-recorder bridge (repro.trace): all zero without a tracer ------
    "trace_traces_total": (
        "gauge", (), "Traces opened at ingestion (one per submitted event)."
    ),
    "trace_traces_sampled_total": (
        "gauge", (), "Traces selected by head-based sampling (spans recorded)."
    ),
    "trace_spans_recorded_total": (
        "gauge", (), "Spans appended to the tracer's ring buffer, lifetime."
    ),
    "trace_spans_dropped_total": (
        "gauge", (), "Oldest spans evicted by the bounded ring (flight-recorder overwrite)."
    ),
    "trace_buffer_occupancy": (
        "gauge", (), "Spans currently retained in the ring buffer."
    ),
    "trace_buffer_capacity": (
        "gauge", (), "Configured bound of the span ring buffer."
    ),
    "trace_sample_rate": (
        "gauge", (), "Configured head-based sampling probability of the tracer."
    ),
    "trace_mns_spans_open": (
        "gauge", (), "MNS suspension spans currently open (suspended, not yet resumed)."
    ),
    # -- health-monitor bridge (repro.health): registered always, populated
    # -- once a HealthMonitor is attached (attach_health); see docs/HEALTH.md.
    "health_monitor_attached": (
        "gauge", (), "1 while a HealthMonitor is attached to this server, else 0."
    ),
    "health_query_lag": (
        "gauge", ("query",),
        "Watermark lag per query: ingestion watermark minus the query's last "
        "emitted result timestamp (virtual seconds; queries that never emitted "
        "report the full watermark).",
    ),
    "health_query_staleness_seconds": (
        "gauge", ("query",),
        "Wall-clock seconds since each query last emitted a result (0 until "
        "the first result).",
    ),
    "health_query_results_total": (
        "gauge", ("query",), "Results emitted per query since the server started."
    ),
    "health_query_slo_state": (
        "gauge", ("query",),
        "SLO state machine per query with a QuerySLO: 0=ok, 1=warning, 2=breach.",
    ),
    "health_slo_breaches_total": (
        "gauge", ("query",),
        "Transitions into SLO breach per query (a sustained violation counts once).",
    ),
    "health_shard_ready_queues": (
        "gauge", ("shard",), "Ready (non-empty) inter-operator queues per shard."
    ),
    "health_shard_starvation_age": (
        "gauge", ("shard",),
        "Max scheduler starvation age per shard: virtual seconds the oldest "
        "ready queue head trails the shard watermark (0 when quiescent).",
    ),
    "health_shard_mns_open": (
        "gauge", ("shard",),
        "Open MNS suspensions per shard (producers suspended awaiting resumption).",
    ),
    "health_shard_mns_oldest_age": (
        "gauge", ("shard",),
        "Virtual seconds the oldest open MNS suspension has been waiting, per shard.",
    ),
    "health_worker_stalled": (
        "gauge", ("shard",),
        "1 while the stall watchdog holds a verdict (worker alive but not "
        "advancing, or dead) for the shard, else 0.",
    ),
    "health_worker_stalls_total": (
        "gauge", ("shard",),
        "Watchdog verdict transitions per shard (stall or death detected).",
    ),
    "health_bundles_written_total": (
        "gauge", (), "Diagnostic bundles written by the attached monitor."
    ),
}


@dataclass
class ServingReport:
    """Accounting snapshot of one server's lifetime."""

    policy: str
    capacity: int
    ingested: int
    delivered: int
    shed: int
    rejected: int
    backpressure_engagements: int
    results: int
    shed_by_source: Dict[str, int] = field(default_factory=dict)
    latency_quantiles: Dict[float, float] = field(default_factory=dict)

    @property
    def accounted(self) -> int:
        """Every submitted event's fate, summed: delivered + shed + buffered.

        ``ingested - delivered - shed`` is whatever still sits in the
        buffer; nothing is ever unaccounted.
        """
        return self.delivered + self.shed

    def summary(self) -> str:
        """One-line summary used by examples and benchmarks."""
        quantiles = ", ".join(
            f"p{int(q * 100)}={v:.2f}s" for q, v in sorted(self.latency_quantiles.items())
        )
        return (
            f"serve[{self.policy}/cap={self.capacity}]: {self.ingested} accepted, "
            f"{self.delivered} delivered, {self.shed} shed, {self.rejected} rejected "
            f"-> {self.results} results ({quantiles})"
        )


class StreamServer:
    """Bounded, policy-governed, telemetry-instrumented ingestion front-end.

    Parameters
    ----------
    engine:
        The :class:`~repro.multi.ShardedEngine` to front.
    capacity:
        Bound of the ingestion buffer.
    policy:
        :class:`~repro.serve.buffers.OverloadPolicy` constant.
    telemetry:
        Optional shared :class:`TelemetryRegistry`; the server creates its
        own when omitted.  Metric families are registered idempotently, so
        several servers may share one registry only if they serve disjoint
        label spaces.
    admission:
        Optional :data:`~repro.serve.admission.AdmissionPolicy` consulted
        before buffering; ``None`` admits everything.
    drain_batch:
        Events moved per backpressure engagement of the ``block`` policy
        (and the default chunk of :meth:`drain` in the asyncio adapter).
    tracer:
        Optional :class:`~repro.trace.Tracer` flight recorder.  The server
        attaches it to the wrapped engine, stamps each buffered event's
        wall-clock wait so ingest spans carry ``buffer_wait_s``, and bridges
        the ``trace_*`` metric families into the exposition (the families
        are registered either way and read zero without a tracer).
    """

    def __init__(
        self,
        engine: ShardedEngine,
        capacity: int = 1024,
        policy: str = OverloadPolicy.BLOCK,
        telemetry: Optional[TelemetryRegistry] = None,
        admission: Optional[AdmissionPolicy] = None,
        drain_batch: int = 64,
        tracer=None,
    ) -> None:
        if not isinstance(engine, ShardedEngine):
            raise TypeError(
                f"cannot serve {type(engine).__name__}; expected a ShardedEngine "
                "(serve a single plan as a one-query registry on one shard)"
            )
        if drain_batch < 1:
            raise ValueError(f"drain_batch must be positive, got {drain_batch}")
        self.engine = engine
        self.policy = policy
        self.drain_batch = drain_batch
        self.admission = admission
        self.tracer = tracer
        if tracer is not None:
            engine.attach_tracer(tracer)
        #: Wall-clock offer time per buffered event (tracer attached only);
        #: entries are removed on delivery and on shed, so the dict is
        #: bounded by the buffer capacity.
        self._offered_at: Dict[int, float] = {}
        self.telemetry = telemetry if telemetry is not None else TelemetryRegistry()
        self._started = time.perf_counter()
        self.buffer = BoundedIngestionBuffer(
            capacity, policy, weight_fn=engine.router.subscriber_count
        )
        #: Newest accepted event timestamp — the serving-side watermark the
        #: latency histogram measures emission against.
        self.ingest_watermark = float("-inf")
        #: Per-query progress cells ``[last_result_ts, results,
        #: wall_clock_of_last_result]`` maintained by the result sinks; the
        #: raw material of the health monitor's lag table.  Kept
        #: unconditionally: two list stores and a perf_counter read per
        #: result is noise next to the collector work the sink already does.
        self.query_progress: Dict[str, list] = {}
        #: The attached :class:`~repro.health.HealthMonitor`, if any; the
        #: ``health_*`` families are registered either way and read
        #: empty/zero without one.
        self._health = None
        self._closed = False
        self._register_metrics()
        for runtime in engine.runtimes.values():
            self._instrument(runtime)

    # -- telemetry wiring ------------------------------------------------------

    def _register_metrics(self) -> None:
        """Register every :data:`METRIC_DOC` family as the catalog states it.

        Kind, labels and help come from the catalog alone; a gauge's value
        comes from :meth:`_gauge_callbacks`, keyed by family name.
        """
        callbacks = self._gauge_callbacks()
        families = {}
        for name, (kind, labels, meaning) in METRIC_DOC.items():
            if kind == "counter":
                families[name] = self.telemetry.counter(name, meaning, labels)
            elif kind == "histogram":
                families[name] = self.telemetry.histogram(name, meaning)
            else:
                families[name] = self.telemetry.gauge(
                    name, meaning, labels, callback=callbacks[name]
                )
        self._ingested = families["serve_ingested_total"]
        self._delivered = families["serve_delivered_total"]
        self._shed = families["serve_shed_total"]
        self._rejected = families["serve_rejected_total"]
        self._results = families["serve_results_total"]
        self._backpressure = families["serve_backpressure_engagements_total"]
        self.latency = families["serve_result_latency"]

    def _gauge_callbacks(self) -> Dict[str, Callable[[], object]]:
        """What every gauge family reads, by family name."""
        engine = self.engine
        shards = engine.shards

        def per_shard(read) -> Callable[[], Dict[str, float]]:
            return lambda: {
                str(index): float(read(shard)) for index, shard in enumerate(shards)
            }

        def per_second(total) -> Callable[[], float]:
            return lambda: total() / max(1e-9, self.uptime_seconds)

        def steps(shard) -> int:
            return shard.cost.count("scheduler_step")

        def scheduler_stat(key: str):
            return per_shard(lambda shard: shard.scheduler.stats().get(key, 0))

        def trace_stat(key: str) -> Callable[[], float]:
            return lambda: (
                float(self.tracer.stats()[key]) if self.tracer is not None else 0.0
            )

        def health_stat(family: str, default) -> Callable[[], object]:
            # Delegated to the attached monitor; without one the labelled
            # families render header-only and the scalars read zero.
            return lambda: (
                self._health.telemetry_stat(family)
                if self._health is not None
                else default
            )

        callbacks = {
            "serve_events_per_second": per_second(lambda: self.delivered_total),
            "serve_buffer_occupancy": lambda: dict(self.buffer.occupancy) or {"": 0},
            "serve_buffer_capacity": lambda: self.buffer.capacity,
            "serve_shard_queue_depth": self.shard_queue_depths,
            "serve_ingest_watermark": lambda: (
                self.ingest_watermark if self.ingest_watermark != float("-inf") else 0.0
            ),
            "serve_suspensions_total": per_shard(attrgetter("suspensions_total")),
            "serve_resumptions_total": per_shard(attrgetter("resumptions_total")),
            "serve_suspension_rate_per_second": per_second(
                lambda: sum(shard.suspensions_total for shard in shards)
            ),
            "serve_resumption_rate_per_second": per_second(
                lambda: sum(shard.resumptions_total for shard in shards)
            ),
            "serve_scheduler_steps_total": per_shard(steps),
            "serve_scheduler_boosts_granted_total": scheduler_stat("boosts_granted"),
            "serve_scheduler_boosted_servings_total": scheduler_stat(
                "boosted_servings"
            ),
            "serve_shared_subplans_active": per_shard(
                attrgetter("shared_subplans_active")
            ),
            "serve_shared_subplan_hits_total": per_shard(
                attrgetter("shared_subplan_hits")
            ),
            "serve_shard_steps_per_event": per_shard(
                lambda shard: steps(shard) / max(1, shard.events_processed)
            ),
            "serve_shard_worker_alive": lambda: {
                str(shard_id): float(alive)
                for shard_id, alive in engine.worker_liveness().items()
            },
            "serve_shard_worker_restarts_total": lambda: {
                str(shard_id): float(restarts)
                for shard_id, restarts in engine.worker_restarts().items()
            },
            "serve_uptime_seconds": lambda: self.uptime_seconds,
            "trace_traces_total": trace_stat("traces_started"),
            "trace_traces_sampled_total": trace_stat("traces_sampled"),
            "trace_spans_recorded_total": trace_stat("spans_recorded"),
            "trace_spans_dropped_total": trace_stat("spans_dropped"),
            "trace_buffer_occupancy": trace_stat("spans_retained"),
            "trace_buffer_capacity": lambda: (
                float(self.tracer.ring.capacity) if self.tracer is not None else 0.0
            ),
            "trace_sample_rate": trace_stat("sample_rate"),
            "trace_mns_spans_open": trace_stat("mns_spans_open"),
        }
        for name, (_kind, labels, _meaning) in METRIC_DOC.items():
            if name.startswith("health_"):
                callbacks[name] = health_stat(name, {} if labels else 0.0)
        return callbacks

    def attach_health(self, monitor) -> None:
        """Attach a :class:`~repro.health.HealthMonitor` (one at a time).

        Called by the monitor's constructor; the ``health_*`` gauge
        callbacks start delegating to it immediately.  :meth:`close` stops
        the monitor (its watchdog thread) with the server.
        """
        self._health = monitor

    def _instrument(self, runtime) -> None:
        """Wrap one hosted query's result sink with latency observation.

        The collector's ``add`` still runs first and unchanged, so result
        state (sequences, ordering checks) is bit-identical to an
        uninstrumented run; the wrapper only *observes*.
        """
        observe = self.latency.observe
        results_inc = self._results.inc
        now = time.perf_counter
        cell = self.query_progress.setdefault(runtime.query_id, [None, 0, None])
        inner_add = runtime.collector.add

        def sink(tup) -> None:
            inner_add(tup)
            results_inc()
            lag = self.ingest_watermark - tup.ts
            observe(lag if lag > 0.0 else 0.0)
            cell[0] = tup.ts
            cell[1] += 1
            cell[2] = now()

        runtime.set_result_sink(sink)

    # -- hosted queries --------------------------------------------------------

    def add_query(self, entry):
        """Host one more registered query and serve its results.

        Delegates to :meth:`ShardedEngine.add_query`, then instruments the
        new runtime like the ones hosted at construction, so its results
        reach ``serve_results_total``, the latency histogram and the health
        monitor's lag table.
        """
        runtime = self.engine.add_query(entry)
        self._instrument(runtime)
        return runtime

    def retire_query(self, query_id: str):
        """Stop serving one query; its progress cell leaves with it.

        Delegates to :meth:`ShardedEngine.retire_query` (which unwires the
        query, instrumented sink included) and drops the query's
        ``query_progress`` cell, so a retired query does not linger in the
        lag table with a lag that only grows.
        """
        retired = self.engine.retire_query(query_id)
        self.query_progress.pop(query_id, None)
        return retired

    # -- live introspection ----------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        """Wall-clock seconds since construction."""
        return time.perf_counter() - self._started

    @property
    def ingested_total(self) -> int:
        """Events accepted into the buffer so far."""
        return self.buffer.accepted_total

    @property
    def delivered_total(self) -> int:
        """Events handed to the engine so far."""
        return self.buffer.popped_total

    @property
    def shed_total(self) -> int:
        """Events shed by the overload policy so far."""
        return self.buffer.shed_total

    @property
    def rejected_total(self) -> int:
        """Events refused by admission so far."""
        return int(self._rejected.value())

    def shard_queue_depths(self) -> Dict[str, int]:
        """Live inter-operator queue depth per shard label."""
        return {
            str(index): shard.queue_depth
            for index, shard in enumerate(self.engine.shards)
        }

    def shard_queue_depth_total(self) -> int:
        """Summed inter-operator queue depth across every shard."""
        return sum(shard.queue_depth for shard in self.engine.shards)

    def exposition(self) -> str:
        """The Prometheus text exposition of every serving metric."""
        return self.telemetry.exposition()

    # -- ingestion -------------------------------------------------------------

    def submit(self, event: StreamEvent) -> bool:
        """Push one event through admission, the buffer, and the policy.

        Returns ``True`` when the event was accepted into the buffer (it
        may still be shed later by a subsequent overflow under the shedding
        policies), ``False`` when admission refused it.  Under the
        ``block`` policy a full buffer makes this call do engine work
        (drain) before accepting — the synchronous form of backpressure —
        so it never sheds and never loses an event.
        """
        self._check_open()
        if self.admission is not None and not self.admission(event, self):
            self._rejected.inc()
            return False
        outcome, shed = self.buffer.offer(event)
        while outcome == OFFER_BLOCKED:
            self._backpressure.inc()
            self.drain(self.drain_batch)
            outcome, shed = self.buffer.offer(event)
        if self.tracer is not None and self.tracer.enabled:
            self._offered_at[id(event)] = time.perf_counter()
        for victim in shed:
            self._shed.labels(policy=self.policy, source=victim.source).inc()
            self._offered_at.pop(id(victim), None)
        self._ingested.labels(source=event.source).inc()
        if event.ts > self.ingest_watermark:
            self.ingest_watermark = event.ts
        return True

    def submit_many(self, events: Iterable[StreamEvent]) -> int:
        """Submit a sequence of events; returns how many were admitted."""
        return sum(1 for event in events if self.submit(event))

    def drain(self, max_events: Optional[int] = None) -> int:
        """Deliver up to ``max_events`` buffered events to the engine, in order."""
        self._check_open()
        delivered = 0
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        for event in self.buffer.pop_batch(max_events):
            if tracer is not None:
                offered = self._offered_at.pop(id(event), None)
                if offered is not None:
                    tracer.note_buffer_wait(time.perf_counter() - offered)
            self.engine.submit(event)
            self._delivered.labels(source=event.source).inc()
            delivered += 1
        return delivered

    def flush(self) -> int:
        """Drain the whole buffer and wait for the engine's own barrier."""
        delivered = self.drain(None)
        self.engine.flush()
        return delivered

    # -- results and lifecycle -------------------------------------------------

    def results_for(self, query_id: str):
        """Per-query result collector."""
        return self.engine.results_for(query_id)

    def report(self) -> ServingReport:
        """Snapshot the serving-side accounting."""
        return ServingReport(
            policy=self.policy,
            capacity=self.buffer.capacity,
            ingested=self.ingested_total,
            delivered=self.delivered_total,
            shed=self.shed_total,
            rejected=self.rejected_total,
            backpressure_engagements=int(self._backpressure.value()),
            results=int(self._results.value()),
            shed_by_source=dict(self.buffer.shed_by_source),
            latency_quantiles={
                q: self.latency.percentile(q) for q in self.latency.quantiles
            },
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the stream server is closed")

    def close(self) -> None:
        """Flush buffered events and close the engine (idempotent)."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True
            if self._health is not None:
                self._health.close()
            self.engine.close()

    def __enter__(self) -> "StreamServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            try:
                self.close()
            except BaseException:
                pass
            return
        self.close()

    def __repr__(self) -> str:
        return (
            f"StreamServer(policy={self.policy}, buffer={len(self.buffer)}/"
            f"{self.buffer.capacity}, ingested={self.ingested_total}, "
            f"shed={self.shed_total})"
        )
