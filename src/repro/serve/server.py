"""The production serving front-end: bounded ingestion around an engine.

:class:`StreamServer` is what stands between a hot source and the engine.
Raw ``submit``/``ingest_async`` on the engines buffer unboundedly and give
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
histogram with p50/p95/p99, and MNS suspension/resumption rates observed
through the engines' feedback listeners.  Latency is *virtual*: the lag
between the server's ingestion watermark (the newest accepted timestamp)
and a result's timestamp at the moment it is emitted — the serving-layer
counterpart of the :class:`~repro.multi.clock.SharedVirtualClock`
watermark, measurable identically in the sync and process drain modes.

The server fronts either a :class:`~repro.multi.ShardedEngine` or a queued
single-plan :class:`~repro.engine.engine.ExecutionEngine`; both expose the
``submit``/``flush`` verbs and per-shard structure the server needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.feedback import FeedbackKind
from repro.engine.engine import ExecutionEngine
from repro.serve.admission import AdmissionPolicy
from repro.serve.buffers import (
    OFFER_BLOCKED,
    BoundedIngestionBuffer,
    OverloadPolicy,
)
from repro.serve.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    TelemetryRegistry,
)
from repro.streams.sources import StreamEvent

__all__ = ["ServingReport", "StreamServer", "METRIC_DOC"]

#: Every metric family the server registers: name -> (kind, labels, meaning).
#: ``docs/SERVING.md`` renders this catalog and the telemetry tests assert
#: each entry exists in the exposition — keep all three in sync.
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
        "counter", ("shard",), "MNS suspension feedback messages (suspend + mark)."
    ),
    "serve_resumptions_total": (
        "counter", ("shard",), "MNS resumption feedback messages (resume + unmark)."
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
        "gauge", (), "Traces opened at ingestion (one per submitted event/batch)."
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
        A :class:`~repro.multi.ShardedEngine` or a queued
        :class:`~repro.engine.engine.ExecutionEngine` to front.
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
        engine,
        capacity: int = 1024,
        policy: str = OverloadPolicy.BLOCK,
        telemetry: Optional[TelemetryRegistry] = None,
        admission: Optional[AdmissionPolicy] = None,
        drain_batch: int = 64,
        tracer=None,
    ) -> None:
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
        self._shards = self._discover_shards()
        self.buffer = BoundedIngestionBuffer(
            capacity, policy, weight_fn=self._subscriber_weight_fn()
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
        self._instrument_results()
        self._instrument_feedback()

    # -- engine shape discovery ----------------------------------------------

    def _discover_shards(self) -> List[object]:
        """The per-shard objects (ShardEngine list, or the engine itself)."""
        shards = getattr(self.engine, "shards", None)
        if shards is not None:
            return list(shards)
        if isinstance(self.engine, ExecutionEngine):
            return [self.engine]
        raise TypeError(
            f"cannot serve {type(self.engine).__name__}; expected a ShardedEngine "
            "or an ExecutionEngine"
        )

    def _subscriber_weight_fn(self):
        router = getattr(self.engine, "router", None)
        if router is None:
            return None
        return router.subscriber_count

    def _runtime_sinks(self) -> Iterable[Tuple[object, object]]:
        """Yield ``(sink_host, collector)`` for every hosted query.

        The host is whatever exposes ``set_result_sink`` for that query: the
        per-query :class:`~repro.multi.shard.PlanRuntime` (which routes to
        its private plan or its shared-tee subscription) for sharded
        engines, or the plan itself for a single-plan engine.
        """
        runtimes = getattr(self.engine, "_runtimes", None)
        if runtimes is not None:
            for runtime in runtimes.values():
                yield runtime, runtime.collector
        else:
            yield self.engine.plan, self.engine.collector

    def _feedback_contexts(self) -> Iterable[Tuple[str, object]]:
        """Yield ``(shard_label, context)`` for every hosted plan context.

        Shared sub-plan contexts are included once per subtree — their
        feedback acts on behalf of every subscriber, so counting it once
        matches the execution semantics (and avoids double-counting).
        """
        runtimes = getattr(self.engine, "_runtimes", None)
        if runtimes is not None:
            for runtime in runtimes.values():
                if runtime.context is None:
                    # Process-mode mirror: the live context is in the worker;
                    # its feedback arrives as shipped deltas instead (see
                    # _instrument_feedback).
                    continue
                yield str(runtime.shard_id), runtime.context
            for shard in self._shards:
                shared_subplans = getattr(shard, "shared_subplans", None)
                if shared_subplans is None:
                    continue
                for shared in shared_subplans():
                    yield str(shard.shard_id), shared.context
        else:
            yield "0", self.engine.context

    # -- telemetry wiring ------------------------------------------------------

    def _register_metrics(self) -> None:
        registry = self.telemetry
        self._ingested = registry.counter(
            "serve_ingested_total", METRIC_DOC["serve_ingested_total"][2], ("source",)
        )
        self._delivered = registry.counter(
            "serve_delivered_total", METRIC_DOC["serve_delivered_total"][2], ("source",)
        )
        self._shed = registry.counter(
            "serve_shed_total", METRIC_DOC["serve_shed_total"][2], ("policy", "source")
        )
        self._rejected = registry.counter(
            "serve_rejected_total", METRIC_DOC["serve_rejected_total"][2]
        )
        self._results = registry.counter(
            "serve_results_total", METRIC_DOC["serve_results_total"][2]
        )
        self._backpressure = registry.counter(
            "serve_backpressure_engagements_total",
            METRIC_DOC["serve_backpressure_engagements_total"][2],
        )
        self.latency = registry.histogram(
            "serve_result_latency",
            METRIC_DOC["serve_result_latency"][2],
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._suspensions = registry.counter(
            "serve_suspensions_total", METRIC_DOC["serve_suspensions_total"][2], ("shard",)
        )
        self._resumptions = registry.counter(
            "serve_resumptions_total", METRIC_DOC["serve_resumptions_total"][2], ("shard",)
        )
        registry.gauge(
            "serve_events_per_second",
            METRIC_DOC["serve_events_per_second"][2],
            callback=lambda: self.delivered_total / max(1e-9, self.uptime_seconds),
        )
        registry.gauge(
            "serve_buffer_occupancy",
            METRIC_DOC["serve_buffer_occupancy"][2],
            ("source",),
            callback=lambda: dict(self.buffer.occupancy) or {"": 0},
        )
        registry.gauge(
            "serve_buffer_capacity",
            METRIC_DOC["serve_buffer_capacity"][2],
            callback=lambda: self.buffer.capacity,
        )
        registry.gauge(
            "serve_shard_queue_depth",
            METRIC_DOC["serve_shard_queue_depth"][2],
            ("shard",),
            callback=self.shard_queue_depths,
        )
        registry.gauge(
            "serve_ingest_watermark",
            METRIC_DOC["serve_ingest_watermark"][2],
            callback=lambda: self.ingest_watermark
            if self.ingest_watermark != float("-inf")
            else 0.0,
        )
        registry.gauge(
            "serve_suspension_rate_per_second",
            METRIC_DOC["serve_suspension_rate_per_second"][2],
            callback=lambda: self._suspensions.total / max(1e-9, self.uptime_seconds),
        )
        registry.gauge(
            "serve_resumption_rate_per_second",
            METRIC_DOC["serve_resumption_rate_per_second"][2],
            callback=lambda: self._resumptions.total / max(1e-9, self.uptime_seconds),
        )
        registry.gauge(
            "serve_scheduler_steps_total",
            METRIC_DOC["serve_scheduler_steps_total"][2],
            ("shard",),
            callback=lambda: {
                str(index): self._shard_cost(shard).count("scheduler_step")
                for index, shard in enumerate(self._shards)
            },
        )
        registry.gauge(
            "serve_scheduler_boosts_granted_total",
            METRIC_DOC["serve_scheduler_boosts_granted_total"][2],
            ("shard",),
            callback=lambda: self._scheduler_stat("boosts_granted"),
        )
        registry.gauge(
            "serve_scheduler_boosted_servings_total",
            METRIC_DOC["serve_scheduler_boosted_servings_total"][2],
            ("shard",),
            callback=lambda: self._scheduler_stat("boosted_servings"),
        )
        registry.gauge(
            "serve_shared_subplans_active",
            METRIC_DOC["serve_shared_subplans_active"][2],
            ("shard",),
            callback=lambda: {
                str(index): float(getattr(shard, "shared_subplans_active", 0))
                for index, shard in enumerate(self._shards)
            },
        )
        registry.gauge(
            "serve_shared_subplan_hits_total",
            METRIC_DOC["serve_shared_subplan_hits_total"][2],
            ("shard",),
            callback=lambda: {
                str(index): float(getattr(shard, "shared_subplan_hits", 0))
                for index, shard in enumerate(self._shards)
            },
        )
        registry.gauge(
            "serve_shard_steps_per_event",
            METRIC_DOC["serve_shard_steps_per_event"][2],
            ("shard",),
            callback=lambda: {
                str(index): self._shard_cost(shard).count("scheduler_step")
                / max(1, getattr(shard, "events_processed", 0))
                for index, shard in enumerate(self._shards)
            },
        )
        registry.gauge(
            "serve_shard_worker_alive",
            METRIC_DOC["serve_shard_worker_alive"][2],
            ("shard",),
            callback=lambda: self._worker_stat("worker_liveness", default=1.0),
        )
        registry.gauge(
            "serve_shard_worker_restarts_total",
            METRIC_DOC["serve_shard_worker_restarts_total"][2],
            ("shard",),
            callback=lambda: self._worker_stat("worker_restarts", default=0.0),
        )
        registry.gauge(
            "serve_uptime_seconds",
            METRIC_DOC["serve_uptime_seconds"][2],
            callback=lambda: self.uptime_seconds,
        )
        for family, stat_key in (
            ("trace_traces_total", "traces_started"),
            ("trace_traces_sampled_total", "traces_sampled"),
            ("trace_spans_recorded_total", "spans_recorded"),
            ("trace_spans_dropped_total", "spans_dropped"),
            ("trace_buffer_occupancy", "spans_retained"),
            ("trace_mns_spans_open", "mns_spans_open"),
            ("trace_sample_rate", "sample_rate"),
        ):
            registry.gauge(
                family,
                METRIC_DOC[family][2],
                callback=lambda key=stat_key: self._trace_stat(key),
            )
        registry.gauge(
            "trace_buffer_capacity",
            METRIC_DOC["trace_buffer_capacity"][2],
            callback=lambda: float(self.tracer.ring.capacity)
            if self.tracer is not None
            else 0.0,
        )
        registry.gauge(
            "health_monitor_attached",
            METRIC_DOC["health_monitor_attached"][2],
            callback=lambda: 1.0 if self._health is not None else 0.0,
        )
        registry.gauge(
            "health_bundles_written_total",
            METRIC_DOC["health_bundles_written_total"][2],
            callback=lambda: self._health_stat("health_bundles_written_total", 0.0),
        )
        for family in (
            "health_query_lag",
            "health_query_staleness_seconds",
            "health_query_results_total",
            "health_query_slo_state",
            "health_slo_breaches_total",
        ):
            registry.gauge(
                family,
                METRIC_DOC[family][2],
                ("query",),
                callback=lambda name=family: self._health_stat(name, {}),
            )
        for family in (
            "health_shard_ready_queues",
            "health_shard_starvation_age",
            "health_shard_mns_open",
            "health_shard_mns_oldest_age",
            "health_worker_stalled",
            "health_worker_stalls_total",
        ):
            registry.gauge(
                family,
                METRIC_DOC[family][2],
                ("shard",),
                callback=lambda name=family: self._health_stat(name, {}),
            )

    def _health_stat(self, family: str, default):
        """Delegate one ``health_*`` family to the attached monitor.

        Without a monitor the labeled families render as empty (header
        only) and the scalars read zero — registration is unconditional so
        the METRIC_DOC <-> registry sync tests cover the whole catalog.
        """
        if self._health is None:
            return default
        return self._health.telemetry_stat(family)

    def attach_health(self, monitor) -> None:
        """Attach a :class:`~repro.health.HealthMonitor` (one at a time).

        Called by the monitor's constructor; the ``health_*`` gauge
        callbacks start delegating to it immediately.  :meth:`close` stops
        the monitor (its watchdog thread and feedback listeners) with the
        server.
        """
        self._health = monitor

    def _trace_stat(self, key: str) -> float:
        if self.tracer is None:
            return 0.0
        return float(self.tracer.stats()[key])

    def _worker_stat(self, method: str, default: float) -> Dict[str, float]:
        """Per-shard worker liveness/restarts from the wrapped engine.

        Engines without worker lifecycle introspection (a bare
        ``ExecutionEngine``) read the default for every shard: the
        submitting thread is the worker, so it is alive by construction
        and never restarted.
        """
        fn = getattr(self.engine, method, None)
        if fn is None:
            return {
                str(index): default for index, _shard in enumerate(self._shards)
            }
        return {str(shard_id): float(value) for shard_id, value in fn().items()}

    @staticmethod
    def _shard_cost(shard):
        cost = getattr(shard, "cost", None)
        if cost is not None:
            return cost
        return shard.context.cost

    def _scheduler_stat(self, key: str) -> Dict[str, float]:
        return {
            str(index): float(shard.scheduler.stats().get(key, 0))
            for index, shard in enumerate(self._shards)
        }

    def _instrument_results(self) -> None:
        """Wrap every hosted plan's result sink with latency observation.

        The collector's ``add`` still runs first and unchanged, so result
        state (sequences, ordering checks) is bit-identical to an
        uninstrumented run; the wrapper only *observes*.
        """
        for host, collector in self._runtime_sinks():
            registered = getattr(host, "registered", None)
            query_id = registered.query_id if registered is not None else "plan"
            host.set_result_sink(self._make_sink(collector.add, query_id))

    def _make_sink(self, inner_add, query_id: str):
        observe = self.latency.observe
        results_inc = self._results.inc
        now = time.perf_counter
        cell = self.query_progress.setdefault(query_id, [None, 0, None])

        def sink(tup) -> None:
            inner_add(tup)
            results_inc()
            lag = self.ingest_watermark - tup.ts
            observe(lag if lag > 0.0 else 0.0)
            cell[0] = tup.ts
            cell[1] += 1
            cell[2] = now()

        return sink

    def _instrument_feedback(self) -> None:
        suspension_kinds = (FeedbackKind.SUSPEND, FeedbackKind.MARK)
        for shard_label, context in self._feedback_contexts():
            suspend_child = self._suspensions.labels(shard=shard_label)
            resume_child = self._resumptions.labels(shard=shard_label)

            def listener(
                producer,
                consumer,
                kind,
                _suspend=suspend_child,
                _resume=resume_child,
            ) -> None:
                if kind in suspension_kinds:
                    _suspend.inc()
                else:
                    _resume.inc()

            context.add_feedback_listener(listener)

        # Process-mode workers count feedback in their own contexts and ship
        # per-shard (suspensions, resumptions) deltas with every
        # acknowledgement; each delivery is counted exactly once in exactly
        # one place, so the totals match what direct listeners would see.
        add_delta = getattr(self.engine, "add_feedback_delta_listener", None)
        if add_delta is not None:
            # Materialize the per-shard children up front so a shard that
            # never suspends still renders a zero sample, exactly like the
            # direct-listener wiring above does.
            for index, _shard in enumerate(self._shards):
                self._suspensions.labels(shard=str(index))
                self._resumptions.labels(shard=str(index))

            def delta_listener(shard_id, suspensions, resumptions) -> None:
                label = str(shard_id)
                if suspensions:
                    self._suspensions.labels(shard=label).inc(suspensions)
                if resumptions:
                    self._resumptions.labels(shard=label).inc(resumptions)

            add_delta(delta_listener)

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
            str(index): shard.queue_depth for index, shard in enumerate(self._shards)
        }

    def shard_queue_depth_total(self) -> int:
        """Summed inter-operator queue depth across every shard."""
        return sum(shard.queue_depth for shard in self._shards)

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
        """Per-query result collector (sharded engines only)."""
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
            close = getattr(self.engine, "close", None)
            if close is not None:
                close()

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
