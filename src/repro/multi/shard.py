"""One shard: many plans, one scheduler domain, one clock view.

A :class:`ShardEngine` is the multi-query generalization of the queued
:class:`~repro.engine.engine.ExecutionEngine`: it hosts the plans of many
registered queries, gives every operator input port of every hosted plan an
inter-operator queue, and drains them all under a **single** operator
scheduler — one scheduler tick can serve any hosted query, which is the
"sharded multi-query engine" the ROADMAP calls for.  The queued machinery
(queue wiring with its ready-set deltas, the drain loop) is shared with the
single-plan engine via :func:`~repro.engine.engine.wire_queued_plan` and
:func:`~repro.engine.engine.drain_ready`, so both paths run the same
hot-path code.

Isolation and sharing are deliberately split:

* **Per plan** — operators, queues, result collector, and an
  :class:`~repro.context.ExecutionContext` carrying the query's own
  window.  Result equivalence with standalone engines follows: a hosted
  plan sees the same tuples and the same clock values as it would alone.
* **Per shard** — the scheduler (and its ready-set), the
  :class:`~repro.multi.clock.ShardClock` view, the cost/memory models and
  the feedback counts (suspensions, resumptions, open suspensions), so a
  shard is also the unit of metrics aggregation and, in process mode, of
  concurrency.  :meth:`ShardEngine.snapshot` and
  :meth:`ShardEngine.health_stats` are the one read surface the serving and
  health layers sample; a process worker ships the same snapshot to its
  parent-side :class:`~repro.multi.backend.ProcessShard`, which answers the
  calls a local shard answers.

A shard's queues are only pushed and popped inside ``process_event`` /
``process_batch``, and each shard is driven by exactly one thread — the
submitting thread inline, the worker's command loop in process mode — so
every ``on_ready`` / ``on_unready`` / ``pop_next`` of a scheduler domain is
issued by one thread.

With ``share_subplans=True`` the shard adds common-subexpression sharing:
queries whose registrations reduce to the same canonical sub-plan signature
(:mod:`repro.plans.signature`) share ONE hosted *unit*, a join subtree
crowned with a :class:`~repro.operators.tee.TeeOperator` that fans each
shared result out to every subscriber: a query's collector, its private
overlay plan (its selections), or a join port of a parent unit — a REF
plan reads hosted *partners* (units equal to its inner join subtrees) and
builds only the joins above.  Units are reference counted across units:
one is torn down when nothing, query or parent unit, reads it any more.
Only registrations hosted before the shard's first event share: a later one
gets a private plan, since a warm unit would hand it results built from
tuples that arrived before it did.  Per-query results stay bit-identical to
unshared runs (see
``docs/SHARING.md`` for the argument and
``tests/test_sharing_equivalence.py`` for the proof).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.context import ExecutionContext
from repro.core.feedback import FeedbackKind
from repro.engine.engine import drain_ready, wire_queued_plan
from repro.engine.results import ResultCollector
from repro.metrics import CostModel, MemoryModel, MetricsReport
from repro.multi.clock import ShardClock
from repro.multi.registry import RegisteredQuery
from repro.operators.base import PORT_INPUT
from repro.operators.queues import InterOperatorQueue
from repro.operators.tee import TeeOperator
from repro.plans.builder import STRATEGY_REF, ShapeNode
from repro.plans.plan import ExecutionPlan
from repro.plans.signature import SubplanSignature, resolve_shape
from repro.scheduler import OperatorScheduler, ReadyInput
from repro.streams.tuples import AtomicTuple

__all__ = ["PlanRuntime", "SharedSubplan", "ShardEngine", "hosting_order"]


@dataclass(eq=False)
class SharedSubplan:
    """One hosted shared unit: joins crowned with a tee, and who reads it.

    Queries (``subscribers``) and parent units (``parents``) subscribe to
    its tee; it may read its ``children``'s tees in place of their joins.
    """

    signature: SubplanSignature
    #: Short stable digest of the signature (used in queue names/diagnostics).
    key: str
    plan: ExecutionPlan
    tee: TeeOperator
    context: ExecutionContext
    shard_id: int
    templates: Tuple[ReadyInput, ...] = field(default=(), repr=False)
    #: Subscribed query ids, in graft order.
    subscribers: List[str] = field(default_factory=list)
    #: Units whose join port this unit's tee feeds, in subscription order.
    parents: List["SharedSubplan"] = field(default_factory=list, repr=False)
    #: Units whose tees feed this unit's join ports (see ``plan.feeds``).
    children: Tuple["SharedSubplan", ...] = field(default=(), repr=False)
    #: Registrations grafted onto this subtree after it was first hosted.
    hits: int = 0

    @property
    def name(self) -> str:
        """Its queues' prefix, and its id on its children's tees."""
        return f"shared-{self.key}"

    @property
    def subscriber_count(self) -> int:
        return len(self.subscribers)

    def __repr__(self) -> str:
        return (
            f"SharedSubplan({self.key}, shard={self.shard_id}, "
            f"subscribers={self.subscribers})"
        )


def _partners(
    registered: RegisteredQuery, hosted: Mapping, node: Optional[ShapeNode] = None
) -> Dict[ShapeNode, object]:
    """On each branch below ``node`` (default: the plan's root), the largest
    inner join subtree whose signature is in ``hosted``, mapped to what
    ``hosted`` holds for it.

    Only a REF plan has partners: a JIT or DOE join sends suspensions into
    its child, and a tee takes no feedback, so such a plan stays one unit.
    """
    if node is None:
        if registered.strategy != STRATEGY_REF:
            return {}
        node = resolve_shape(registered.query, registered.shape)
    found: Dict[ShapeNode, object] = {}
    for child in node:
        if isinstance(child, str):
            continue
        partner = hosted.get(registered.subplan_signature(child))
        if partner is not None:
            found[child] = partner
        else:
            found.update(_partners(registered, hosted, child))
    return found


def hosting_order(entries: Sequence[RegisteredQuery]) -> List[RegisteredQuery]:
    """``entries``, each partner (the first registration whose whole plan is
    an inner join subtree of a REF plan) moved ahead of the plans reading it.

    A unit can only read a partner that is already hosted; every other
    registration keeps its place.
    """
    first: Dict[SubplanSignature, RegisteredQuery] = {}
    for entry in entries:
        first.setdefault(entry.subplan_signature(), entry)
    ordered: Dict[str, RegisteredQuery] = {}

    def place(entry: RegisteredQuery) -> None:
        if entry.query_id not in ordered:  # partners are narrower: no cycle
            for partner in _partners(entry, first).values():
                place(partner)
            ordered[entry.query_id] = entry

    for entry in entries:
        place(entry)
    return list(ordered.values())


def _released(unit: SharedSubplan, leaving: str) -> List[SharedSubplan]:
    """``unit`` and the units below it that nothing reads once ``leaving``
    (a query id or a parent unit's name) stops reading ``unit``."""
    if unit.tee.subscriber_ids != (leaving,):
        return []
    return [unit] + [
        released for child in unit.children for released in _released(child, unit.name)
    ]


@dataclass
class PlanRuntime:
    """One hosted query's live execution state on its shard.

    Without sharing, ``plan`` is the query's full dedicated plan.  With
    sharing, ``plan`` is the query's private overlay (its selections)
    or ``None`` when the query consumes the shared subtree's output
    directly, and ``shared`` points at the subtree serving it.
    """

    registered: RegisteredQuery
    plan: Optional[ExecutionPlan]
    context: ExecutionContext
    collector: ResultCollector
    shard_id: int
    #: The plan's ReadyInput templates, in registration order — the handle
    #: ``ShardEngine.retire_plan`` uses to unwire queues and scheduler state.
    templates: Tuple[ReadyInput, ...] = field(default=(), repr=False)
    #: The shared subtree feeding this runtime, when sharing is enabled.
    shared: Optional[SharedSubplan] = field(default=None, repr=False)

    @property
    def query_id(self) -> str:
        return self.registered.query_id

    def set_result_sink(self, sink) -> None:
        """Install the callable receiving this query's results.

        Routes to the private plan's root when the runtime owns one, else to
        the shared tee's per-subscriber sink — the one entry point the
        serving layer needs to instrument results regardless of sharing.
        """
        if self.plan is not None:
            self.plan.set_result_sink(sink)
        else:
            assert self.shared is not None
            self.shared.tee.set_subscriber_sink(self.query_id, sink)

    def __repr__(self) -> str:
        return (
            f"PlanRuntime({self.query_id!r}, shard={self.shard_id}, "
            f"results={self.collector.count})"
        )


class ShardEngine:
    """Hosts the plans assigned to one shard and drains them together.

    Parameters
    ----------
    shard_id:
        Position of this shard within the sharded engine.
    scheduler:
        This shard's operator scheduler instance (schedulers are stateful,
        so each shard owns its own).
    clock:
        The shard's view of the shared virtual clock.
    keep_results:
        Whether hosted collectors retain result tuples.
    share_subplans:
        Enable common-subexpression sharing: queries with equal canonical
        sub-plan signatures share one hosted unit, and REF units read hosted
        partners' tees in place of their inner joins.
    """

    def __init__(
        self,
        shard_id: int,
        scheduler: OperatorScheduler,
        clock: ShardClock,
        keep_results: bool = True,
        share_subplans: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.scheduler = scheduler
        self.clock = clock
        self.keep_results = keep_results
        self.share_subplans = share_subplans
        self.cost = CostModel()
        self.memory = MemoryModel()
        self.runtimes: List[PlanRuntime] = []
        self.events_processed = 0
        #: Hosted shared subtrees by canonical signature (insertion order).
        self._shared: Dict[SubplanSignature, SharedSubplan] = {}
        #: Registrations that found an existing shared subtree to graft onto.
        self.shared_subplan_hits = 0
        self._ready_meta: List[ReadyInput] = []
        #: Next registration order to hand out.  Monotone across the shard's
        #: lifetime — retired plans' orders are never reused, so scheduler
        #: histories keyed on order can never alias plans.
        self._next_order = 0
        #: Source name -> input queues of every hosted plan consuming it.
        self._routes: Dict[str, List[InterOperatorQueue]] = {}
        #: Suspension and resumption messages delivered on any hosted
        #: context (§III-B).
        self.suspensions_total = 0
        self.resumptions_total = 0
        #: Open suspensions per (producer id, consumer id) edge: the shard
        #: clock's ``now`` at each still-unresumed suspension, oldest first.
        #: Listeners see only the edge, not the signature, so a resumption
        #: closes the edge's oldest open suspension — the conservative
        #: reading for the oldest-suspension age.
        self._open_suspensions: Dict[Tuple[int, int], List[float]] = {}
        #: Optional flight recorder (see :meth:`attach_tracer`).
        self.tracer = None
        #: A local shard is never respawned; a process shard counts its
        #: worker restarts under the same name.
        self.restarts = 0

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.trace.Tracer` to this shard.

        Every hosted context (current and future) gets the tracer, so
        operator-level hooks (tee fan-out, result emits, feedback) can see
        it; spans are labelled with this shard's id.
        """
        self.tracer = tracer
        for runtime in self.runtimes:
            runtime.context.tracer = tracer
            runtime.context.trace_shard = self.shard_id
        for shared in self._shared.values():
            shared.context.tracer = tracer
            shared.context.trace_shard = self.shard_id

    # -- feedback ------------------------------------------------------------

    def _observe(self, context: ExecutionContext) -> None:
        """Make ``context``'s feedback reach the scheduler and the counts."""
        context.add_feedback_listener(self.scheduler.notify_feedback)
        context.add_feedback_listener(self._note_feedback)

    def _unobserve(self, context: ExecutionContext) -> None:
        context.remove_feedback_listener(self.scheduler.notify_feedback)
        context.remove_feedback_listener(self._note_feedback)

    def _note_feedback(self, producer, consumer, kind) -> None:
        # Stamped with the shard clock, which a process worker advances
        # exactly as the inline shard does: both modes record equal values.
        edge = (id(producer), id(consumer))
        if kind == FeedbackKind.SUSPEND:
            self.suspensions_total += 1
            self._open_suspensions.setdefault(edge, []).append(self.clock.now)
        else:
            self.resumptions_total += 1
            opened = self._open_suspensions.get(edge)
            if opened:
                opened.pop(0)
                if not opened:
                    del self._open_suspensions[edge]

    # -- hosting -------------------------------------------------------------

    def _make_context(self, window) -> ExecutionContext:
        return ExecutionContext(
            window=window,
            clock=self.clock,
            cost=self.cost,
            memory=self.memory,
            tracer=self.tracer,
            trace_shard=self.shard_id,
        )

    def _wire_plan(
        self, plan: ExecutionPlan, context: ExecutionContext, queue_prefix: str
    ) -> Tuple[Dict[Tuple[int, str], InterOperatorQueue], List[ReadyInput]]:
        """Wire one plan's queues into this shard's scheduler domain."""
        queues, templates = wire_queued_plan(
            plan,
            context,
            self.scheduler,
            order_start=self._next_order,
            queue_prefix=queue_prefix,
        )
        self._next_order += len(templates)
        self._ready_meta.extend(templates)
        return queues, templates

    def _register_routes(
        self,
        plan: ExecutionPlan,
        queues: Dict[Tuple[int, str], InterOperatorQueue],
    ) -> None:
        for source, targets in plan.routing.items():
            route = self._routes.setdefault(source, [])
            for operator, port in targets:
                route.append(queues[(id(operator), port)])

    def _unwire(self, templates: Iterable[ReadyInput]) -> None:
        """Drop a retired plan's queues from the routes and the scheduler."""
        templates = tuple(templates)
        retired_queues = {id(t.queue) for t in templates}
        self._ready_meta = [
            t for t in self._ready_meta if id(t.queue) not in retired_queues
        ]
        for template in templates:
            template.queue.readiness_listener = None
        for source in list(self._routes):
            kept = [q for q in self._routes[source] if id(q) not in retired_queues]
            if kept:
                self._routes[source] = kept
            else:
                del self._routes[source]
        self.scheduler.retire(templates)

    def host(self, entries: Sequence[RegisteredQuery]) -> List[PlanRuntime]:
        """Build and wire each registration's plan into this shard, in order.

        With ``share_subplans`` enabled, a query is grafted onto an existing
        shared unit when one with the same canonical signature is already
        hosted; otherwise a new unit is hosted for that signature, reading
        any hosted partner (see :meth:`_host_unit`).  Once the shard has
        processed an event its units are warm — they hold tuples that
        arrived before a newcomer did — so a registration hosted after that
        gets its own plan, exactly as unshared hosting builds it, and sees
        only the stream from its own arrival on.
        """
        if self.share_subplans and not self.events_processed:
            return [self._host_shared(registered) for registered in entries]
        return [self._host_private(registered) for registered in entries]

    def _host_private(self, registered: RegisteredQuery) -> PlanRuntime:
        plan = registered.build_plan()
        context = self._make_context(registered.query.window)
        plan.attach(context)
        collector = ResultCollector(keep_tuples=self.keep_results)
        plan.set_result_sink(collector.add)
        queues, templates = self._wire_plan(
            plan, context, queue_prefix=f"{registered.query_id}:"
        )
        self._register_routes(plan, queues)
        self._observe(context)
        runtime = PlanRuntime(
            registered=registered,
            plan=plan,
            context=context,
            collector=collector,
            shard_id=self.shard_id,
            templates=tuple(templates),
        )
        self.runtimes.append(runtime)
        return runtime

    def _host_shared(self, registered: RegisteredQuery) -> PlanRuntime:
        signature = registered.subplan_signature()
        shared = self._shared.get(signature)
        if shared is None:
            shared = self._host_unit(registered, signature)
        else:
            shared.hits += 1
            self.shared_subplan_hits += 1
        context = self._make_context(registered.query.window)
        collector = ResultCollector(keep_tuples=self.keep_results)
        overlay = registered.build_overlay_plan()
        overlay_templates: Tuple[ReadyInput, ...] = ()
        if overlay is not None:
            overlay.attach(context)
            overlay.set_result_sink(collector.add)
            # Overlay plans have an empty routing table: their single
            # external input is the tee delivery into the bottom operator.
            queues, templates = self._wire_plan(
                overlay, context, queue_prefix=f"{registered.query_id}:"
            )
            bottom = overlay.operators[0]
            shared.tee.add_subscriber(
                registered.query_id, queue=queues[(id(bottom), PORT_INPUT)]
            )
            self._observe(context)
            overlay_templates = tuple(templates)
        else:
            shared.tee.add_subscriber(registered.query_id, sink=collector.add)
        shared.subscribers.append(registered.query_id)
        runtime = PlanRuntime(
            registered=registered,
            plan=overlay,
            context=context,
            collector=collector,
            shard_id=self.shard_id,
            templates=overlay_templates,
            shared=shared,
        )
        self.runtimes.append(runtime)
        return runtime

    def _host_unit(
        self, registered: RegisteredQuery, signature: SubplanSignature
    ) -> SharedSubplan:
        """Wire a new unit for ``signature``: only the joins above its
        hosted partners, each partner's tee feeding the port it replaces."""
        children = _partners(registered, self._shared)
        key = registered.signature_key()
        plan = registered.build_shared_plan(
            {node: child.name for node, child in children.items()}
        )
        context = self._make_context(registered.query.window)
        plan.attach(context)
        queues, templates = self._wire_plan(
            plan, context, queue_prefix=f"shared-{key}:"
        )
        self._register_routes(plan, queues)
        # Observed once for the whole unit: a shared operator's jit_aware
        # boosts and MNS suspensions act (and count) once on behalf of
        # every subscriber, not once per grafted query.
        self._observe(context)
        assert isinstance(plan.root, TeeOperator)
        unit = SharedSubplan(
            signature=signature,
            key=key,
            plan=plan,
            tee=plan.root,
            context=context,
            shard_id=self.shard_id,
            templates=tuple(templates),
            children=tuple(children.values()),
        )
        for child in unit.children:
            operator, port = plan.feeds[child.name]
            child.tee.add_subscriber(unit.name, queue=queues[(id(operator), port)])
            child.parents.append(unit)
        self._shared[signature] = unit
        return unit

    def flush(self) -> None:
        """Nothing to wait for: every ``process_event`` drains before returning."""

    def close(self) -> None:
        """Nothing to release: a local shard owns no process or thread."""

    def retire_plan(self, query_id: str) -> PlanRuntime:
        """Unhost one plan: unwire its queues, routes, and scheduler state.

        The plan must be quiescent — between events its queues are always
        empty (every drain runs to completion) — so retirement never drops
        in-flight tuples.  The retired runtime (with its collector) is
        returned so callers can migrate or archive it.  Registration orders
        are not reused, and the scheduler's :meth:`~repro.scheduler.
        OperatorScheduler.retire` drops every per-identity record, so
        long-lived domains do not accumulate state across plan churn.

        A query served by a shared unit only detaches its tee subscription
        and private overlay; the unit is reference counted across units and
        torn down (queues, routes, scheduler state, feedback listeners) when
        its *last* reader leaves, whether query or parent unit — which in
        turn releases the units it read.

        Like every other mutation of a shard, this must run on the thread
        that drives the shard, between drains; through a sharded engine go
        via :meth:`~repro.multi.sharded.ShardedEngine.retire_query`, which
        brings the shard to a barrier first.
        """
        runtime = next(
            (r for r in self.runtimes if r.query_id == query_id), None
        )
        if runtime is None:
            raise KeyError(
                f"shard {self.shard_id} hosts no query {query_id!r}; "
                f"hosted: {[r.query_id for r in self.runtimes]}"
            )
        shared = runtime.shared
        released = [] if shared is None else _released(shared, query_id)
        pending = [t.queue.name for t in runtime.templates if len(t.queue)]
        for unit in released:
            pending += [t.queue.name for t in unit.templates if len(t.queue)]
        if pending:
            raise RuntimeError(
                f"cannot retire {query_id!r} with queued tuples in {pending}; "
                "drain the shard first"
            )
        self.runtimes.remove(runtime)
        if runtime.templates:
            self._unwire(runtime.templates)
        if shared is not None:
            shared.tee.remove_subscriber(query_id)
            shared.subscribers.remove(query_id)
            for unit in released:
                self._unwire(unit.templates)
                self._unobserve(unit.context)
                del self._shared[unit.signature]
                for child in unit.children:
                    child.tee.remove_subscriber(unit.name)
                    child.parents.remove(unit)
        # The archived context must stop feeding this shard's scheduler and
        # counts: a replayed/migrated runtime would otherwise boost operators
        # of a domain it no longer belongs to (id-reuse aliasing included).
        self._unobserve(runtime.context)
        return runtime

    @property
    def sources(self) -> Tuple[str, ...]:
        """Sorted source names consumed by at least one hosted plan."""
        return tuple(sorted(self._routes))

    def consumes(self, source: str) -> bool:
        """True while at least one hosted (sub-)plan still routes ``source``."""
        return source in self._routes

    # -- shared-subtree introspection ----------------------------------------

    @property
    def shared_subplans_active(self) -> int:
        """Number of shared join subtrees currently hosted on this shard."""
        return len(self._shared)

    def shared_subplans(self) -> List[SharedSubplan]:
        """The hosted shared subtrees, in first-host order."""
        return list(self._shared.values())

    @property
    def queue_count(self) -> int:
        """Number of operator input queues across all hosted plans."""
        return len(self._ready_meta)

    @property
    def queue_depth(self) -> int:
        """Tuples currently sitting in this shard's inter-operator queues.

        Non-zero only while a drain is in progress (every drain runs to
        completion); the serving layer's telemetry samples it as the
        per-shard queue-depth gauge.
        """
        return sum(len(item.queue) for item in self._ready_meta)

    # -- execution -----------------------------------------------------------

    def _drain(self) -> None:
        drain_ready(self.scheduler, self.cost, self.tracer, self.shard_id)

    def process_event(self, event: AtomicTuple, trace_ctx=None) -> None:
        """Advance this shard's clock, deliver one routed event, drain.

        ``trace_ctx`` carries the trace context opened at ingestion when the
        event crossed a process boundary to get here (process mode); it is
        activated on this thread for the duration of the call so the
        drain's spans join the ingesting event's trace.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            self.clock.advance_to(event.ts)
            for queue in self._routes.get(event.source, ()):
                queue.push(event)
            self._drain()
            self.events_processed += 1
            return
        # With a live tracer the event takes the traced delivery.
        self.process_batch((event,), trace_ctx)

    def process_batch(self, events: Sequence[AtomicTuple], trace_ctx=None) -> None:
        """The traced delivery: deliver same-timestamp routed events, drain once.

        :meth:`process_event` calls it with one event whenever a tracer is
        attached and enabled; it activates ``trace_ctx`` and records one
        shard span around the push and the drain.
        """
        if not events:
            return
        ts = events[0].ts
        for event in events[1:]:
            if event.ts != ts:
                raise ValueError(
                    f"process_batch needs same-timestamp events, got {ts} and {event.ts}"
                )
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        previous = (
            tracer.activate(trace_ctx)
            if tracer is not None and trace_ctx is not None
            else None
        )
        try:
            self.clock.advance_to(ts)
            if tracer is not None and tracer.active:
                start = tracer.now_us()
                pushes = 0
                for event in events:
                    for queue in self._routes.get(event.source, ()):
                        queue.push(event)
                        pushes += 1
                self._drain()
                tracer.record_shard_span(
                    self.shard_id,
                    events[0].source,
                    start,
                    tracer.now_us() - start,
                    pushes,
                )
            else:
                for event in events:
                    for queue in self._routes.get(event.source, ()):
                        queue.push(event)
                self._drain()
            self.events_processed += len(events)
        finally:
            if tracer is not None and trace_ctx is not None:
                tracer.restore(previous)

    # -- reporting -----------------------------------------------------------

    @property
    def results_produced(self) -> int:
        """Total results emitted by every hosted plan."""
        return sum(runtime.collector.count for runtime in self.runtimes)

    def metrics(self) -> MetricsReport:
        """Snapshot this shard's aggregated cost/memory models."""
        return MetricsReport.from_models(
            self.cost, self.memory, results_produced=self.results_produced
        )

    def _progress(self) -> Dict[str, object]:
        """Progress facts: the shard clock, starvation, open suspensions."""
        now = self.clock.now
        ages = self.scheduler.starvation_ages(now)
        open_suspensions = self._open_suspensions.values()
        return {
            "watermark": now,
            "ready_queues": len(ages),
            "max_starvation_age": max(ages.values(), default=0.0),
            "mns_open": sum(len(opened) for opened in open_suspensions),
            "mns_oldest_ts": min(
                (opened[0] for opened in open_suspensions), default=None
            ),
        }

    def snapshot(self) -> Dict[str, object]:
        """Every counter the serving and health layers read, as plain data.

        A process worker ships exactly this dict with every
        ``hosted``/``retired``/``flushed`` reply, so the parent-side
        :class:`~repro.multi.backend.ProcessShard` reads what a local shard
        would report.
        """
        return {
            "queue_count": self.queue_count,
            "queue_depth": self.queue_depth,
            "events_processed": self.events_processed,
            "results_produced": self.results_produced,
            "shared_subplans_active": self.shared_subplans_active,
            "shared_subplan_hits": self.shared_subplan_hits,
            "sources": self.sources,
            "cost_counters": self.cost.snapshot(),
            "scheduler_stats": dict(self.scheduler.stats()),
            "metrics": self.metrics(),
            "progress": self._progress(),
        }

    def health_stats(self) -> Dict[str, object]:
        """Heartbeat and progress facts for the health monitor's watchdog.

        A local shard is driven by its caller, so it is alive, owes nothing
        and has no independent heartbeat (``last_progress`` is ``None``).
        """
        return {
            "alive": True,
            "in_flight": 0,
            "acked_events": self.events_processed,
            "last_progress": None,
            **self._progress(),
        }

    def __repr__(self) -> str:
        return (
            f"ShardEngine(id={self.shard_id}, plans={len(self.runtimes)}, "
            f"queues={self.queue_count}, events={self.events_processed})"
        )
