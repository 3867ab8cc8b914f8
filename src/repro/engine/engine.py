"""The execution engine: drive an execution plan over a stream of arrivals.

Section III-B of the paper has two execution settings:

* **Synchronous**: every arrival is pushed depth-first through the plan; an
  operator's emission is processed by its consumer before the operator
  continues, so feedback takes effect at once — the paper's "upon receiving
  f, OP suspends its current work and immediately handles f".
  :class:`ExecutionEngine` runs one plan this way, as every figure does.
* **Queued**: every producer/consumer edge (and every source input) gets an
  inter-operator queue, and an operator scheduler picks the operator that
  consumes next; feedback is still a synchronous method call.
  :class:`~repro.multi.shard.ShardEngine` runs this setting for one plan or
  many with the two functions below: :func:`wire_queued_plan` gives every
  queue a readiness listener that feeds the scheduler its empty<->non-empty
  deltas (nothing scans the queues), and :func:`drain_ready` asks the
  scheduler's ``pop_next()`` once per step, O(log ready).

Both settings produce the same result multiset; the test suite checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.context import ExecutionContext
from repro.engine.results import ResultCollector
from repro.metrics import CostKind, MetricsReport
from repro.operators.queues import InterOperatorQueue
from repro.plans.plan import ExecutionPlan
from repro.scheduler import OperatorScheduler, ReadyInput
from repro.streams.time import Window
from repro.streams.tuples import AtomicTuple

__all__ = [
    "RunReport",
    "ExecutionEngine",
    "run_workload",
    "wire_queued_plan",
    "drain_ready",
]


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


# -- the queued setting's machinery (run by ShardEngine) --------------------------


def wire_queued_plan(
    plan: ExecutionPlan,
    context: ExecutionContext,
    scheduler: OperatorScheduler,
    order_start: int,
    queue_prefix: str,
) -> Tuple[Dict[Tuple[int, str], InterOperatorQueue], List[ReadyInput]]:
    """Create one input queue per operator port of ``plan`` and wire outputs
    (called by :class:`~repro.multi.shard.ShardEngine` for each plan it hosts).

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
    """Run scheduled operators until the scheduler has no ready input (the
    drain of :class:`~repro.multi.shard.ShardEngine`).

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
    """Pushes each arrival depth-first through one :class:`ExecutionPlan`.

    Parameters
    ----------
    plan:
        The plan to execute.  It is attached to ``context`` unless it already
        is; a plan attached to another context is refused, because its
        operators would charge that context and this engine would report
        an empty one.
    context:
        Shared execution context (window, clock, metrics).
    keep_results:
        Whether result tuples are retained (disable for very long benchmark
        runs where only counts and costs matter).
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        context: ExecutionContext,
        keep_results: bool = True,
    ) -> None:
        if plan.context is None:
            plan.attach(context)
        elif plan.context is not context:
            raise ValueError(
                f"plan {plan.description or plan.root.name!r} is attached to another "
                "execution context; build a fresh plan for each run"
            )
        self.plan = plan
        self.context = context
        self.collector = ResultCollector(keep_tuples=keep_results)
        #: Arrivals processed so far.
        self.events_processed = 0
        #: Optional flight recorder (see :meth:`attach_tracer`).
        self.tracer = None
        plan.set_result_sink(self.collector.add)

    # -- tracing --------------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.trace.Tracer` flight recorder.

        From now on every ingested event opens one trace (subject to the
        tracer's head-based sampling), and feedback delivered on the context
        reaches the tracer.  Detach by attaching ``None``.
        """
        self.tracer = tracer
        self.context.tracer = tracer

    # -- execution ------------------------------------------------------------------

    def submit(self, event: AtomicTuple) -> None:
        """Push one event: :meth:`process_event` under the push-ingestion
        name :class:`~repro.multi.ShardedEngine` uses, so one driver loop
        (``submit`` per event, then ``flush``) runs either engine."""
        self.process_event(event)

    def flush(self) -> None:
        """The push-ingestion barrier: a no-op here, because every
        ``process_event`` drains to completion before returning."""

    def process_event(self, event: AtomicTuple) -> None:
        """Advance the clock and push one arrival into the plan."""
        self.context.clock.advance_to(event.ts)
        self.events_processed += 1
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        ctx = tracer.begin_trace(event, fanout=1) if tracer is not None else None
        try:
            self.plan.deliver(event, event.source)
        finally:
            if tracer is not None:
                tracer.end_trace(ctx)

    def run(self, events: Iterable[AtomicTuple]) -> RunReport:
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
    plan: ExecutionPlan,
    events: Iterable[AtomicTuple],
    window_length: float,
    keep_results: bool = True,
) -> RunReport:
    """Run ``events`` through ``plan`` synchronously and report.

    A fresh :class:`~repro.context.ExecutionContext` with a window of
    ``window_length`` seconds is created around ``plan``, so every run is
    independent.  A caller holding an engine calls its ``run(events)``.
    """
    context = ExecutionContext(window=Window(window_length))
    return ExecutionEngine(plan, context, keep_results=keep_results).run(events)
