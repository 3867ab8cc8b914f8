"""The execution engine: drive an execution plan over a stream of arrivals.

Two execution modes are supported, mirroring the two settings the paper
discusses in Section III-B:

* **Synchronous** (default): every arrival is pushed depth-first through the
  plan; an operator's emission is processed by its consumer before the
  operator continues.  Feedback therefore takes effect immediately, which is
  the paper's "upon receiving f, OP suspends its current work and immediately
  handles f" policy.  All figure benchmarks run in this mode.
* **Queued**: every producer/consumer edge (and every source input) gets an
  inter-operator queue, and an operator scheduler decides which operator
  consumes next.  Feedback is still delivered synchronously (method call),
  as the paper requires, but ordinary tuples flow through queues.

Both modes must — and, per the test suite, do — produce the same result set.

Queued-mode hot-path design:

* **Ready-set deltas.**  Every queue carries a readiness listener that fires
  on its empty<->non-empty transitions and feeds the scheduler directly
  (``on_ready`` / ``on_unready``); nothing scans the queues.
* **One drain loop.**  :func:`drain_ready` — shared with the sharded engine's
  :class:`~repro.multi.shard.ShardEngine` — asks ``pop_next()`` per step,
  pops one tuple, reports the new head (``on_head_change``) and runs the
  operator.  The policies answer from lazy heaps keyed on head timestamps,
  tie-breaking on the stable registration index, so one scheduling step
  costs O(log ready).
* **Feedback-aware scheduling.**  The engine registers its scheduler as a
  feedback listener on the execution context; operators notify the context
  whenever a suspension/resumption message is delivered, which lets
  ``jit_aware`` apply the paper's Section III-B priority boosts.
* **One ingestion path.**  Every arrival enters through
  :meth:`ExecutionEngine.process_event` (``submit``), which advances the
  clock, delivers the tuple and drains to completion: the paper's
  purge-probe-insert once per arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.context import ExecutionContext
from repro.engine.results import ResultCollector
from repro.metrics import CostKind, MetricsReport
from repro.operators.queues import InterOperatorQueue
from repro.plans.plan import ExecutionPlan
from repro.scheduler import OperatorScheduler, ReadyInput, build_scheduler
from repro.streams.sources import StreamEvent

__all__ = [
    "ExecutionMode",
    "RunReport",
    "ExecutionEngine",
    "run_workload",
    "wire_queued_plan",
    "drain_ready",
]


class ExecutionMode:
    """Names of the supported execution modes."""

    SYNCHRONOUS = "synchronous"
    QUEUED = "queued"

    ALL = (SYNCHRONOUS, QUEUED)


@dataclass
class RunReport:
    """Everything a caller needs to know about one execution run."""

    description: str
    events_processed: int
    results: ResultCollector
    metrics: MetricsReport

    @property
    def cpu_units(self) -> float:
        """Total modelled CPU cost units of the run."""
        return self.metrics.cpu_units

    @property
    def peak_memory_kb(self) -> float:
        """Peak modelled memory in kilobytes."""
        return self.metrics.peak_memory_kb

    @property
    def result_count(self) -> int:
        """Number of query results produced."""
        return self.results.count

    def summary(self) -> str:
        """One-line summary used by examples and the experiment reports."""
        return (
            f"{self.description}: {self.events_processed} arrivals -> "
            f"{self.result_count} results, cpu={self.cpu_units:.0f} units, "
            f"peak_mem={self.peak_memory_kb:.1f} KB, wall={self.metrics.wall_seconds:.3f}s"
        )


# -- queued-mode machinery (shared with the sharded multi-query engine) ----------


def wire_queued_plan(
    plan: ExecutionPlan,
    context: ExecutionContext,
    scheduler: OperatorScheduler,
    order_start: int = 0,
    queue_prefix: str = "",
) -> Tuple[Dict[Tuple[int, str], InterOperatorQueue], List[ReadyInput]]:
    """Create one input queue per operator port of ``plan`` and wire outputs.

    Returns the queue map keyed by ``(id(operator), port)`` and the
    :class:`ReadyInput` templates in registration order (numbered from
    ``order_start`` so several plans can share one scheduler domain with
    globally unique, stable orders).  Every queue's readiness listener feeds
    ``scheduler`` its transitions; each is a closure with the template and
    the scheduler's delta methods pre-bound, so a transition costs one call
    and one branch — no lookup to recover the template.
    """
    on_ready = scheduler.on_ready
    on_unready = scheduler.on_unready
    input_queues: Dict[Tuple[int, str], InterOperatorQueue] = {}
    templates: List[ReadyInput] = []
    for operator in plan.operators:
        for port in operator.ports:
            queue = InterOperatorQueue(
                name=f"{queue_prefix}->{operator.name}.{port}", context=context
            )
            input_queues[(id(operator), port)] = queue
            item = ReadyInput(
                operator=operator,
                port=port,
                queue=queue,
                order=order_start + len(templates),
            )
            templates.append(item)

            def listener(
                queue, nonempty, _item=item, _on_ready=on_ready, _on_unready=on_unready
            ):
                if nonempty:
                    _on_ready(_item)
                else:
                    _on_unready(_item)

            queue.readiness_listener = listener
    for operator in plan.operators:
        if operator.consumer is not None and operator.consumer_port is not None:
            operator.output_queue = input_queues[
                (id(operator.consumer), operator.consumer_port)
            ]
    return input_queues, templates


def drain_ready(scheduler: OperatorScheduler, cost, tracer=None, shard: int = 0) -> None:
    """Run scheduled operators until the scheduler has no ready input.

    Queue transitions reach the scheduler through the readiness listeners;
    this loop only has to report the head change after each pop so the
    scheduler's keys track the new head tuple.  While the tracer's *current
    trace is sampled* a step observer records one scheduler-pop span and one
    operator-step span per step (see :meth:`repro.trace.Tracer.step_observer`);
    it only observes, so traced and untraced drains take identical decisions,
    and every unsampled drain pays two ``is None`` tests per step for it.
    """
    # ``enabled`` is a plain attribute; testing it first keeps a disabled
    # tracer at one attribute load instead of the thread-local ``active``.
    observer = (
        tracer.step_observer(scheduler, cost, shard)
        if tracer is not None and tracer.enabled and tracer.active
        else None
    )
    ready_count = scheduler.ready_count
    pop_next = scheduler.pop_next
    on_head_change = scheduler.on_head_change
    charge = cost.charge
    step = CostKind.SCHEDULER_STEP
    while ready_count():
        charge(step)
        if observer is None:
            choice = pop_next()
        else:
            observer.before_pop()
            choice = pop_next()
            observer.after_pop()
        queue = choice.queue
        tup = queue.pop()
        if queue:
            on_head_change(choice)
        if observer is None:
            choice.operator.process(tup, choice.port)
        else:
            observer.before_step(choice)
            try:
                choice.operator.process(tup, choice.port)
            finally:
                observer.after_step(choice, tup)


class ExecutionEngine:
    """Drives an :class:`ExecutionPlan` over a time-ordered event sequence.

    Parameters
    ----------
    plan:
        The plan to execute.  It is attached to ``context`` if not already.
    context:
        Shared execution context (window, clock, metrics).
    mode:
        ``ExecutionMode.SYNCHRONOUS`` or ``ExecutionMode.QUEUED``.
    scheduler:
        Operator scheduler for the queued mode (defaults to FIFO); ignored in
        synchronous mode.
    keep_results:
        Whether result tuples are retained (disable for very long benchmark
        runs where only counts and costs matter).
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        context: ExecutionContext,
        mode: str = ExecutionMode.SYNCHRONOUS,
        scheduler: Optional[OperatorScheduler] = None,
        keep_results: bool = True,
    ) -> None:
        if mode not in ExecutionMode.ALL:
            raise ValueError(f"unknown execution mode {mode!r}; expected one of {ExecutionMode.ALL}")
        self.plan = plan
        self.context = context
        self.mode = mode
        self.scheduler = scheduler if scheduler is not None else build_scheduler("fifo")
        self.collector = ResultCollector(keep_tuples=keep_results)
        #: Arrivals processed so far.
        self.events_processed = 0
        #: Optional flight recorder (see :meth:`attach_tracer`).
        self.tracer = None
        if not plan.is_attached:
            plan.attach(context)
        plan.set_result_sink(self.collector.add)
        self._input_queues: Dict[Tuple[int, str], InterOperatorQueue] = {}
        if mode == ExecutionMode.QUEUED:
            self._input_queues, _templates = wire_queued_plan(
                plan, context, self.scheduler
            )
            context.add_feedback_listener(self.scheduler.notify_feedback)

    def _drain_queues(self) -> None:
        """Run scheduled operators until every input queue is empty."""
        drain_ready(
            self.scheduler, self.context.cost, self.tracer, self.context.trace_shard
        )

    # -- tracing --------------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.trace.Tracer` flight recorder.

        From now on every ingested event opens one trace (subject to the
        tracer's head-based sampling) and sampled events record per-step
        spans in the drain loop.  Detach by attaching ``None``.
        """
        self.tracer = tracer
        self.context.tracer = tracer

    # -- execution ------------------------------------------------------------------

    def submit(self, event: StreamEvent) -> None:
        """Push one event: :meth:`process_event` under the push-ingestion
        name :class:`~repro.multi.ShardedEngine` uses, so one driver loop
        (``submit`` per event, then ``flush``) runs either engine."""
        self.process_event(event)

    def flush(self) -> None:
        """The push-ingestion barrier: a no-op here, because every
        ``process_event`` drains to completion before returning."""

    def process_event(self, event: StreamEvent) -> None:
        """Advance the clock and push one arrival into the plan."""
        self.context.clock.advance_to(event.ts)
        self.events_processed += 1
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        ctx = tracer.begin_trace(event, fanout=1) if tracer is not None else None
        try:
            if self.mode == ExecutionMode.SYNCHRONOUS:
                self.plan.deliver(event.tuple, event.source)
                return
            for operator, port in self.plan.targets_for(event.source):
                self._input_queues[(id(operator), port)].push(event.tuple)
            self._drain_queues()
        finally:
            if tracer is not None:
                tracer.end_trace(ctx)

    def run(self, events: Iterable[StreamEvent]) -> RunReport:
        """Process every event and return the run report."""
        cost = self.context.cost
        cost.start_wall_clock()
        count = 0
        try:
            for event in events:
                self.process_event(event)
                count += 1
        finally:
            cost.stop_wall_clock()
        return self._report(count)

    def _report(self, count: int) -> RunReport:
        return RunReport(
            description=self.plan.description or self.plan.root.name,
            events_processed=count,
            results=self.collector,
            metrics=MetricsReport.from_models(
                self.context.cost, self.context.memory, results_produced=self.collector.count
            ),
        )


def run_workload(
    plan: Optional[ExecutionPlan] = None,
    events: Sequence[StreamEvent] = (),
    window_length: Optional[float] = None,
    mode: str = ExecutionMode.SYNCHRONOUS,
    scheduler: Optional[OperatorScheduler] = None,
    keep_results: bool = True,
    engine=None,
):
    """Run ``events`` through a plan (or a pre-built engine) and report.

    Without ``engine``, a fresh :class:`~repro.context.ExecutionContext` with
    a window of ``window_length`` seconds is created around ``plan`` so
    repeated calls are independent; the remaining parameters mirror
    :class:`ExecutionEngine`.  With ``engine``, any object exposing
    ``run(events)`` — a pre-built
    :class:`ExecutionEngine` or a :class:`~repro.multi.ShardedEngine` — is
    driven as-is (``plan``, ``window_length`` and the construction parameters
    must then be omitted), so examples and the sharded multi-query path share
    this one entry point.
    """
    if engine is None:
        from repro.streams.time import Window

        if plan is None or window_length is None:
            raise ValueError("run_workload needs either an engine or a plan plus window_length")
        context = ExecutionContext(window=Window(window_length))
        engine = ExecutionEngine(
            plan,
            context,
            mode=mode,
            scheduler=scheduler,
            keep_results=keep_results,
        )
    elif (
        plan is not None
        or window_length is not None
        or mode != ExecutionMode.SYNCHRONOUS
        or scheduler is not None
        or keep_results is not True
    ):
        # A pre-built engine already fixed its construction parameters;
        # accepting them here would silently ignore the caller's values.
        raise ValueError(
            "pass either a pre-built engine or plan/construction parameters, not both"
        )
    return engine.run(events)
