"""The event tracer: sampled, causally-linked spans over the JIT pipeline.

A :class:`Tracer` attaches to an engine (``ExecutionEngine.attach_tracer``,
``ShardedEngine.attach_tracer``) or is handed to a
:class:`~repro.serve.server.StreamServer`; from then on it records one
*trace* per ingested event — the event's full causal path:

    ingest -> router fan-out -> (buffer wait) -> per-shard drain ->
    scheduler pop -> operator step -> tee fan-out -> result emit

plus the JIT feedback flow: every delivered feedback message is an instant
span, and every MNS suspension's lifetime (suspend -> resume, paired per
producer and MNS signature) is an async begin/end pair, so Perfetto renders
the suspension window exactly as the paper draws it.

Design constraints (mirroring the telemetry layer's):

* **Head-based, deterministic sampling.**  The sampling decision is made
  once per trace, at ingestion, by a seeded ``random.Random`` — the same
  seed and workload sample the same traces, so traced runs are replayable.
  Every span of a sampled trace is recorded; unsampled traces record
  nothing.
* **Negligible overhead when disabled.**  A disabled tracer (or one that is
  not attached) costs the hot path one attribute load and one branch; the
  drain loop builds its :class:`StepObserver` only while the *current*
  trace is sampled, and otherwise makes no call on the tracer's behalf.
* **Bounded memory.**  Spans live in a :class:`~repro.trace.spans.SpanRing`
  that drops (and counts) the oldest span when full.
* **Observation only.**  The tracer never mutates queues, schedulers or
  operators; traced runs produce bit-identical results (pinned by
  ``tests/test_trace.py``).

Export surfaces: :meth:`Tracer.chrome_trace` (Perfetto-loadable trace-event
JSON, one track per shard/operator), :func:`~repro.trace.explain.
explain_analyze` (per-query operator-tree report over the tracer's
profiles), and :meth:`Tracer.stats` (the ``trace_*`` telemetry families the
serving layer exposes).  See ``docs/TRACING.md``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.feedback import FeedbackKind
from repro.metrics import CostKind
from repro.trace.spans import SpanKind, SpanRing

__all__ = ["TraceContext", "Tracer", "validate_chrome_trace"]

#: Track (Chrome ``tid``) used for spans not attributable to one operator.
_TRACK_PIPELINE = "pipeline"

#: Cost kinds whose per-step deltas are attached to operator-step spans.
_TRACED_CHARGE_KINDS = (
    CostKind.PROBE_STEP,
    CostKind.PREDICATE_EVAL,
    CostKind.HASH,
    CostKind.RESULT_BUILD,
)


class TraceContext:
    """The per-trace sampling decision, propagated along the causal path.

    One context is created per ingested event and travels with it — through
    the router, into every subscribed shard and across the pipe to process
    workers — so every span of the event's processing lands in the same
    trace and the head-based sampling decision is honoured across shard
    (and process) boundaries.
    """

    __slots__ = ("trace_id", "sampled")

    def __init__(self, trace_id: int, sampled: bool) -> None:
        self.trace_id = trace_id
        self.sampled = sampled

    def __repr__(self) -> str:
        return f"TraceContext(id={self.trace_id}, sampled={self.sampled})"


class StepObserver:
    """Records the spans of one sampled drain, step by step.

    :func:`repro.engine.engine.drain_ready` brackets its two observable
    points with this object: the scheduling decision (one scheduler-pop
    span: policy, ready-set size, whether the pop was served from the
    jit_aware boosted band — detected by the ``boosted_servings`` counter
    advancing) and the operator run (one operator-step span: wall time plus
    the :class:`~repro.metrics.CostKind` charge deltas — probe steps,
    predicate evaluations, hash lookups, result builds — and the tuples
    emitted).  One observer serves one drain call on one thread.
    """

    __slots__ = ("tracer", "scheduler", "counters", "shard", "_start", "_pending")

    def __init__(self, tracer: "Tracer", scheduler, cost, shard: int) -> None:
        self.tracer = tracer
        self.scheduler = scheduler
        self.counters = cost.counters
        self.shard = shard

    def before_pop(self) -> None:
        scheduler = self.scheduler
        self._pending = (
            scheduler.ready_count(),
            getattr(scheduler, "boosted_servings", 0),
        )
        self._start = self.tracer.now_us()

    def after_pop(self) -> None:
        tracer, scheduler = self.tracer, self.scheduler
        ready, boosted_before = self._pending
        tracer.record_scheduler_pop(
            self.shard,
            scheduler.name,
            self._start,
            tracer.now_us() - self._start,
            ready,
            getattr(scheduler, "boosted_servings", 0) > boosted_before,
        )

    def before_step(self, choice) -> None:
        operator, queue = choice.operator, choice.queue
        # Queue names carry the hosting plan's prefix ("q0:->Op1.left"), so
        # the span label is plan-qualified — co-hosted plans reusing operator
        # names ("Tee", "Op1") get distinct tracks and distinct profiles.
        arrow = queue.name.find("->")
        label = (queue.name[:arrow] + operator.name) if arrow > 0 else operator.name
        counters = self.counters
        self._pending = (
            label,
            [counters.get(kind, 0) for kind in _TRACED_CHARGE_KINDS],
            operator.emitted_count,
        )
        self._start = self.tracer.now_us()
        # The hot-path tee/emit hooks key off this plain flag (set only
        # around a sampled step) instead of the tracer's thread-local
        # ``active`` property, keeping untraced runs hook-free.
        queue.context.trace_live = True

    def after_step(self, choice, tup) -> None:
        choice.queue.context.trace_live = False
        end = self.tracer.now_us()
        label, before, emitted_before = self._pending
        counters = self.counters
        charges = {}
        for kind, base in zip(_TRACED_CHARGE_KINDS, before):
            delta = counters.get(kind, 0) - base
            if delta:
                charges[kind] = delta
        self.tracer.record_operator_step(
            self.shard,
            label,
            choice.port,
            self._start,
            end - self._start,
            charges,
            choice.operator.emitted_count - emitted_before,
            tup.ts,
        )


class Tracer:
    """Flight recorder for the pipeline: spans, profiles, exports.

    Parameters
    ----------
    sample_rate:
        Probability that a trace (one ingested event's causal path) is
        recorded.  ``1.0`` records everything, ``0.0`` records nothing
        (the tracer still counts traces).
    capacity:
        Bound of the span ring buffer.
    seed:
        Seed of the sampling RNG — the head-based decisions are a pure
        function of (seed, ingestion order).
    enabled:
        When False, :meth:`begin_trace` returns ``None`` immediately and
        the whole pipeline runs exactly as if no tracer were attached.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        capacity: int = 65536,
        seed: int = 0,
        enabled: bool = True,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.seed = seed
        self.enabled = enabled
        self.ring = SpanRing(capacity)
        self._rng = random.Random(seed)
        self._epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_trace_id = 0
        self._next_async_id = 0
        self.traces_started = 0
        self.traces_sampled = 0
        #: Open MNS suspensions: (id(producer), signature) -> (async id, t_us).
        self._open_mns: Dict[Tuple[int, object], Tuple[int, float]] = {}
        self.mns_pairs_closed = 0
        #: Per-operator profile aggregates keyed (shard, operator name) —
        #: the data :func:`~repro.trace.explain.explain_analyze` reads.
        #: Kept outside the ring so profiles survive span eviction.
        self.profiles: Dict[Tuple[int, str], Dict[str, float]] = {}

    # -- time ----------------------------------------------------------------

    def now_us(self) -> float:
        """Wall-clock microseconds since the tracer's epoch."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- trace lifecycle ------------------------------------------------------

    def begin_trace(self, event, fanout: int = 0) -> Optional[TraceContext]:
        """Open one trace for an ingested event; the head-based decision.

        Returns the :class:`TraceContext` to propagate along the event's
        processing (``None`` when the tracer is disabled).  Records the
        ingest and route spans when the trace is sampled.  Must be called
        from the ingestion thread — the seeded RNG draw per trace is what
        makes sampling deterministic.
        """
        if not self.enabled:
            return None
        with self._lock:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            self.traces_started += 1
            sampled = self._rng.random() < self.sample_rate
            if sampled:
                self.traces_sampled += 1
        ctx = TraceContext(trace_id, sampled)
        self._local.ctx = ctx
        # Consume the pending buffer wait even on unsampled traces — it
        # belongs to *this* ingestion and must not leak into a later trace.
        wait = getattr(self._local, "pending_buffer_wait", None)
        if wait is not None:
            self._local.pending_buffer_wait = None
        if sampled:
            args = {
                "trace_id": trace_id,
                "source": event.source,
                "virtual_ts": event.ts,
            }
            if wait is not None:
                args["buffer_wait_s"] = wait
            self._instant(SpanKind.INGEST, f"ingest:{event.source}", None, args)
            self._instant(
                SpanKind.ROUTE,
                f"route:{event.source}",
                None,
                {"trace_id": trace_id, "fanout": fanout},
            )
        return ctx

    def end_trace(self, ctx: Optional[TraceContext]) -> None:
        """Close the ingestion thread's current trace."""
        if getattr(self._local, "ctx", None) is ctx:
            self._local.ctx = None

    def activate(self, ctx: Optional[TraceContext]) -> Optional[TraceContext]:
        """Make ``ctx`` current on *this* thread; returns the previous one.

        Shard workers call this when they receive an event whose trace
        context travelled with it, so spans recorded on the worker join the
        right trace.
        """
        previous = getattr(self._local, "ctx", None)
        self._local.ctx = ctx
        return previous

    def restore(self, ctx: Optional[TraceContext]) -> None:
        """Restore a previously active context (pairs with :meth:`activate`)."""
        self._local.ctx = ctx

    @property
    def active(self) -> bool:
        """True while the current thread is inside a *sampled* trace."""
        ctx = getattr(self._local, "ctx", None)
        return ctx is not None and ctx.sampled

    @property
    def current(self) -> Optional[TraceContext]:
        """The current thread's trace context (None outside any trace)."""
        return getattr(self._local, "ctx", None)

    def note_buffer_wait(self, seconds: float) -> None:
        """Record how long the next-ingested event waited in a serve buffer.

        Called by the serving layer just before it delivers a buffered
        event to the engine; the wait is attached to the ingest span of the
        trace that :meth:`begin_trace` opens for that delivery.
        """
        self._local.pending_buffer_wait = seconds

    # -- span recording (sampled path only) -----------------------------------

    def _trace_id(self) -> int:
        ctx = getattr(self._local, "ctx", None)
        return ctx.trace_id if ctx is not None else -1

    def _instant(self, cat: str, name: str, shard: Optional[int], args: dict) -> None:
        self.ring.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": self.now_us(),
                "pid": 0 if shard is None else shard,
                "tid": _TRACK_PIPELINE,
                "s": "t",
                "args": args,
            }
        )

    def record_span(
        self,
        cat: str,
        name: str,
        start_us: float,
        dur_us: float,
        shard: int,
        track: str,
        args: dict,
    ) -> None:
        """Record one complete (``ph: X``) span."""
        args.setdefault("trace_id", self._trace_id())
        self.ring.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": start_us,
                "dur": max(0.0, dur_us),
                "pid": shard,
                "tid": track,
                "args": args,
            }
        )

    def record_shard_span(
        self, shard: int, source: str, start_us: float, dur_us: float, pushes: int
    ) -> None:
        """One shard's processing of one routed event (pushes + drain)."""
        self.record_span(
            SpanKind.SHARD,
            f"shard:{source}",
            start_us,
            dur_us,
            shard,
            _TRACK_PIPELINE,
            {"source": source, "queue_pushes": pushes},
        )

    def step_observer(self, scheduler, cost, shard: int) -> StepObserver:
        """The per-step span recorder of one sampled drain."""
        return StepObserver(self, scheduler, cost, shard)

    def record_scheduler_pop(
        self,
        shard: int,
        policy: str,
        start_us: float,
        dur_us: float,
        ready: int,
        boosted: bool,
    ) -> None:
        """One scheduling decision: which policy, how deep, boosted or not."""
        self.record_span(
            SpanKind.SCHEDULER_POP,
            f"pop:{policy}",
            start_us,
            dur_us,
            shard,
            "scheduler",
            {"policy": policy, "ready": ready, "boosted": boosted},
        )

    def record_operator_step(
        self,
        shard: int,
        operator_name: str,
        port: str,
        start_us: float,
        dur_us: float,
        charges: Dict[str, int],
        emitted: int,
        virtual_ts: float,
    ) -> None:
        """One operator consuming one tuple, with its per-step cost charges.

        ``charges`` maps :class:`~repro.metrics.CostKind` names to the
        number of charges this step incurred (probe steps, predicate
        evaluations, hash lookups — hash charges reveal index probes versus
        scans — and result builds); ``emitted`` is the tuples emitted
        downstream by this step.
        """
        args = {
            "port": port,
            "emitted": emitted,
            "virtual_ts": virtual_ts,
        }
        args.update(charges)
        self.record_span(
            SpanKind.OPERATOR_STEP,
            f"step:{operator_name}",
            start_us,
            dur_us,
            shard,
            operator_name,
            args,
        )
        key = (shard, operator_name)
        profile = self.profiles.get(key)
        if profile is None:
            profile = self.profiles.setdefault(
                key,
                {
                    "steps": 0,
                    "wall_us": 0.0,
                    "emitted": 0,
                    "probe_step": 0,
                    "predicate_eval": 0,
                    "hash": 0,
                    "result_build": 0,
                    "first_virtual_ts": virtual_ts,
                    "last_virtual_ts": virtual_ts,
                },
            )
        profile["steps"] += 1
        profile["wall_us"] += dur_us
        profile["emitted"] += emitted
        for kind in ("probe_step", "predicate_eval", "hash", "result_build"):
            profile[kind] += charges.get(kind, 0)
        profile["last_virtual_ts"] = virtual_ts

    def record_tee_fanout(
        self,
        shard: int,
        tee_name: str,
        start_us: float,
        dur_us: float,
        subscribers: Tuple[str, ...],
    ) -> None:
        """One shared result delivered to every tee subscriber."""
        self.record_span(
            SpanKind.TEE_FANOUT,
            f"tee:{tee_name}",
            start_us,
            dur_us,
            shard,
            tee_name,
            {"fanout": len(subscribers), "subscribers": list(subscribers)},
        )

    def record_result_emit(self, operator_name: str, virtual_ts: float) -> None:
        """One result tuple handed to a result sink (instant)."""
        self._instant(
            SpanKind.RESULT_EMIT,
            f"emit:{operator_name}",
            None,
            {"trace_id": self._trace_id(), "virtual_ts": virtual_ts},
        )

    # -- feedback / MNS pairing ------------------------------------------------

    def on_feedback(self, producer, consumer, kind: str, feedback=None) -> None:
        """Observe one delivered feedback message; pair MNS suspensions.

        Called by :meth:`~repro.context.ExecutionContext.notify_feedback`
        on the producer side of every delivery.  Suspension-like messages
        *open* one async span per MNS signature (keyed on the producer and
        the signature) when the current trace is sampled; resumption-like
        messages *close* the matching open span regardless of the current
        trace's sampling — a suspension's lifetime routinely crosses traces,
        and an unpaired close is silently skipped.
        """
        if not self.enabled:
            return
        sampled = self.active
        producer_name = getattr(producer, "name", str(producer))
        if sampled:
            self._instant(
                SpanKind.FEEDBACK,
                f"feedback:{kind}",
                None,
                {
                    "trace_id": self._trace_id(),
                    "kind": kind,
                    "producer": producer_name,
                    "consumer": getattr(consumer, "name", str(consumer)),
                    "signatures": len(feedback.signatures) if feedback is not None else 0,
                },
            )
        if feedback is None:
            return
        now = self.now_us()
        if kind in (FeedbackKind.SUSPEND, FeedbackKind.MARK):
            if not sampled:
                return
            for signature in feedback.signatures:
                key = (id(producer), signature)
                if key in self._open_mns:
                    continue
                with self._lock:
                    async_id = self._next_async_id
                    self._next_async_id += 1
                self._open_mns[key] = (async_id, now)
                self.ring.append(
                    {
                        "name": f"mns:{producer_name}",
                        "cat": SpanKind.MNS,
                        "ph": "b",
                        "ts": now,
                        "pid": 0,
                        "tid": _TRACK_PIPELINE,
                        "id": async_id,
                        "args": {"kind": kind, "signature": str(signature)},
                    }
                )
        elif kind in (FeedbackKind.RESUME, FeedbackKind.UNMARK):
            for signature in feedback.signatures:
                opened = self._open_mns.pop((id(producer), signature), None)
                if opened is None:
                    continue
                async_id, _t0 = opened
                self.mns_pairs_closed += 1
                self.ring.append(
                    {
                        "name": f"mns:{producer_name}",
                        "cat": SpanKind.MNS,
                        "ph": "e",
                        "ts": now,
                        "pid": 0,
                        "tid": _TRACK_PIPELINE,
                        "id": async_id,
                        "args": {"kind": kind, "signature": str(signature)},
                    }
                )

    @property
    def mns_spans_open(self) -> int:
        """MNS suspensions currently open (suspended, not yet resumed)."""
        return len(self._open_mns)

    # -- worker merging --------------------------------------------------------

    def merge_worker(
        self,
        worker: str,
        spans,
        profiles=None,
        mns_pairs_closed: int = 0,
    ) -> None:
        """Fold spans and profiles recorded by a worker-process tracer in.

        Process-mode shard workers run their own :class:`Tracer` (seeded on
        the parent's epoch, so timelines align under fork's shared
        ``perf_counter``) and ship their ring contents back at every flush
        barrier.  Each merged span is stamped with the worker id in
        ``args["worker"]``; profiles accumulate additively, and the workers'
        closed MNS pairs roll into this tracer's counter so
        ``trace_mns_pairs_closed`` covers the whole fleet.
        """
        for span in spans:
            merged = dict(span)
            args = dict(merged.get("args") or {})
            args["worker"] = worker
            merged["args"] = args
            self.ring.append(merged)
        for key, incoming in (profiles or {}).items():
            profile = self.profiles.get(key)
            if profile is None:
                self.profiles[key] = dict(incoming)
                continue
            profile["steps"] += incoming["steps"]
            profile["wall_us"] += incoming["wall_us"]
            profile["emitted"] += incoming["emitted"]
            for kind in ("probe_step", "predicate_eval", "hash", "result_build"):
                profile[kind] += incoming.get(kind, 0)
            profile["first_virtual_ts"] = min(
                profile["first_virtual_ts"], incoming["first_virtual_ts"]
            )
            profile["last_virtual_ts"] = max(
                profile["last_virtual_ts"], incoming["last_virtual_ts"]
            )
        self.mns_pairs_closed += mns_pairs_closed

    # -- exports ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """The ``trace_*`` counters the serving layer bridges to telemetry."""
        return {
            "traces_started": self.traces_started,
            "traces_sampled": self.traces_sampled,
            "spans_recorded": self.ring.appended_total,
            "spans_dropped": self.ring.dropped_total,
            "spans_retained": len(self.ring),
            "mns_pairs_closed": self.mns_pairs_closed,
            "mns_spans_open": self.mns_spans_open,
            "sample_rate": self.sample_rate,
        }

    def ring_tail(self, limit: int = 256) -> List[dict]:
        """The newest ``limit`` retained spans, oldest first.

        The flight-recorder read used by diagnostic bundles
        (:mod:`repro.health.bundle`): spans are already plain Chrome
        trace-event dicts, so the tail drops straight into a JSON artifact
        without transformation.  Reading does not consume the ring.
        """
        if limit <= 0:
            return []
        spans = self.ring.snapshot()
        return spans[-limit:]

    def chrome_trace(self) -> dict:
        """The retained spans as a Chrome trace-event JSON object.

        Loads directly in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``: one process per shard, one thread track per
        operator (plus the ``pipeline`` and ``scheduler`` tracks).  String
        ``tid``s are mapped to stable small integers with thread-name
        metadata records, which is what the viewers expect.
        """
        spans = self.ring.snapshot()
        events: List[dict] = []
        tids: Dict[Tuple[int, str], int] = {}
        pids = set()
        for span in spans:
            pid = span["pid"]
            pids.add(pid)
            key = (pid, span["tid"])
            tid = tids.get(key)
            if tid is None:
                tid = tids[key] = len(tids) + 1
            out = dict(span)
            out["tid"] = tid
            events.append(out)
        metadata: List[dict] = []
        for pid in sorted(pids):
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"shard-{pid}"},
                }
            )
        for (pid, track), tid in sorted(tids.items(), key=lambda item: item[1]):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tracer": "repro.trace",
                "sample_rate": self.sample_rate,
                "seed": self.seed,
                "traces_started": self.traces_started,
                "traces_sampled": self.traces_sampled,
                "spans_dropped": self.ring.dropped_total,
            },
        }

    def write_chrome_trace(self, path) -> None:
        """Serialize :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)

    def reset(self) -> None:
        """Clear spans, profiles and open suspensions (keeps the RNG state)."""
        self.ring.clear()
        self.profiles.clear()
        self._open_mns.clear()

    def __repr__(self) -> str:
        return (
            f"Tracer(rate={self.sample_rate}, enabled={self.enabled}, "
            f"traces={self.traces_started}, spans={self.ring.appended_total})"
        )


def validate_chrome_trace(trace: dict) -> dict:
    """Validate a Chrome trace-event JSON object; returns it on success.

    Checks the invariants the viewers rely on — used by the test suite and
    the ``examples/trace_explain.py`` CI smoke step:

    * ``traceEvents`` is a list of records, each with ``name``/``ph``/
      ``pid``/``tid``, a numeric ``ts`` (except metadata records), and a
      non-negative ``dur`` on complete (``X``) spans;
    * phases are limited to the ones the tracer emits (X/i/b/e/M);
    * every async end (``e``) has a matching begin (``b``) with the same
      ``id`` and category, begun at or before it;
    * the object survives a JSON round-trip.
    """
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        raise ValueError("trace must be a dict with a traceEvents list")
    open_async: Dict[Tuple[object, str], float] = {}
    for record in trace["traceEvents"]:
        for key in ("name", "ph", "pid", "tid"):
            if key not in record:
                raise ValueError(f"trace record missing {key!r}: {record!r}")
        ph = record["ph"]
        if ph not in ("X", "i", "b", "e", "M"):
            raise ValueError(f"unexpected phase {ph!r}: {record!r}")
        if ph == "M":
            continue
        if not isinstance(record.get("ts"), (int, float)):
            raise ValueError(f"non-numeric ts: {record!r}")
        if ph == "X":
            if not isinstance(record.get("dur"), (int, float)) or record["dur"] < 0:
                raise ValueError(f"X span needs a non-negative dur: {record!r}")
        elif ph == "b":
            open_async[(record.get("id"), record.get("cat"))] = record["ts"]
        elif ph == "e":
            key = (record.get("id"), record.get("cat"))
            begun = open_async.pop(key, None)
            if begun is None:
                raise ValueError(f"async end without matching begin: {record!r}")
            if record["ts"] < begun:
                raise ValueError(f"async end before its begin: {record!r}")
    json.loads(json.dumps(trace))
    return trace
