"""The tee operator: multiplex one shared sub-plan's output to N subscribers.

When the sharding layer (:mod:`repro.multi.shard`) detects that several
registered queries would build identical join subtrees, it builds the subtree
once and crowns it with a :class:`TeeOperator`.  The tee is the fan-out
point: every tuple the shared subtree produces is delivered once per
subscriber, either into the input queue of that query's private overlay plan
(its selections) or straight into its result sink when the query has
no overlay.

Accounting model (see ``docs/SHARING.md``): the shared subtree's probe and
maintenance work is charged once — that is the whole point of sharing — but
*delivery* is per-subscriber.  Each delivery charges ``CostKind.RESULT_BUILD``
exactly as a dedicated root emission would, so a subscriber's marginal cost
reflects its own consumption and the shard cost model stays comparable with
unshared runs.  The per-subscriber ``delivered`` counters expose the same
accounting to telemetry and tests.

Feedback: the tee deliberately *swallows* consumer feedback instead of
relaying it upstream.  One subscriber's selection asking the shared joins to
suppress a signature would starve every other subscriber; ignoring feedback
is always result-correct ("OP may decide to ignore the message",
Section III-A of the paper), so per-query filters simply do their own work
above the tee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Optional, Tuple

from repro.metrics import CostKind
from repro.operators.base import ResultSink, UnaryOperator
from repro.streams.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.feedback import Feedback
    from repro.operators.base import Operator
    from repro.operators.queues import InterOperatorQueue

__all__ = ["TeeSubscriber", "TeeOperator"]


@dataclass
class TeeSubscriber:
    """One subscriber of a shared sub-plan: a queue or a direct sink."""

    query_id: str
    #: Input queue of the subscriber's private overlay plan, if it has one.
    queue: Optional["InterOperatorQueue"] = None
    #: Direct result sink for overlay-less subscribers.
    sink: Optional[ResultSink] = None
    #: Tuples delivered to this subscriber (per-subscriber accounting).
    delivered: int = 0


class TeeOperator(UnaryOperator):
    """Fans one operator's output out to any number of subscriber plans."""

    def __init__(self, name: str, sources: Iterable[str]) -> None:
        super().__init__(name)
        self._sources = frozenset(sources)
        if not self._sources:
            raise ValueError("a tee needs the source set its input tuples cover")
        #: Subscribers in registration order (delivery order is deterministic).
        self.subscribers: List[TeeSubscriber] = []
        #: Total deliveries across all subscribers.
        self.delivered_count = 0

    def output_sources(self) -> FrozenSet[str]:
        return self._sources

    # -- subscriber management ------------------------------------------------

    def _find(self, query_id: str) -> TeeSubscriber:
        for subscriber in self.subscribers:
            if subscriber.query_id == query_id:
                return subscriber
        raise KeyError(
            f"tee {self.name!r} has no subscriber {query_id!r}; "
            f"subscribed: {self.subscriber_ids}"
        )

    def add_subscriber(
        self,
        query_id: str,
        queue: Optional["InterOperatorQueue"] = None,
        sink: Optional[ResultSink] = None,
    ) -> TeeSubscriber:
        """Attach one query's delivery target (exactly one of queue/sink)."""
        if (queue is None) == (sink is None):
            raise ValueError(
                f"subscriber {query_id!r} needs exactly one of queue or sink"
            )
        if any(s.query_id == query_id for s in self.subscribers):
            raise ValueError(f"query {query_id!r} already subscribes to {self.name!r}")
        subscriber = TeeSubscriber(query_id=query_id, queue=queue, sink=sink)
        self.subscribers.append(subscriber)
        return subscriber

    def set_subscriber_sink(self, query_id: str, sink: ResultSink) -> None:
        """Replace an overlay-less subscriber's result sink.

        The serving layer uses this to wrap sinks with latency observation —
        the shared-plan counterpart of ``ExecutionPlan.set_result_sink``.
        """
        subscriber = self._find(query_id)
        if subscriber.queue is not None:
            raise ValueError(
                f"subscriber {query_id!r} is queue-fed; set the sink on its "
                "overlay plan instead"
            )
        subscriber.sink = sink

    def remove_subscriber(self, query_id: str) -> TeeSubscriber:
        """Detach one query; remaining subscribers keep their delivery order."""
        subscriber = self._find(query_id)
        self.subscribers.remove(subscriber)
        return subscriber

    @property
    def subscriber_ids(self) -> Tuple[str, ...]:
        """Subscribed query ids in registration (= delivery) order."""
        return tuple(s.query_id for s in self.subscribers)

    @property
    def subscriber_count(self) -> int:
        return len(self.subscribers)

    # -- execution ------------------------------------------------------------

    def process(self, tup: StreamTuple, port: str) -> None:
        """Deliver one shared result to every subscriber, charged per delivery."""
        self._check_port(port)
        context = self.require_context()
        if context.trace_live:
            tracer = context.tracer
            start = tracer.now_us()
            self._deliver(tup, context)
            tracer.record_tee_fanout(
                context.trace_shard,
                self.name,
                start,
                tracer.now_us() - start,
                self.subscriber_ids,
            )
        else:
            self._deliver(tup, context)

    def _deliver(self, tup: StreamTuple, context) -> None:
        charge = context.cost.charge
        for subscriber in self.subscribers:
            charge(CostKind.RESULT_BUILD)
            subscriber.delivered += 1
            self.delivered_count += 1
            if subscriber.queue is not None:
                subscriber.queue.push(tup)
            else:
                assert subscriber.sink is not None
                subscriber.sink(tup)

    def handle_feedback(self, feedback: "Feedback", from_consumer: "Operator") -> None:
        """Swallow consumer feedback — never relay it into the shared subtree.

        Relaying would let one subscriber's suspension starve the others;
        ignoring feedback is always result-correct (Section III-A).
        """

    def __repr__(self) -> str:
        return (
            f"TeeOperator({self.name!r}, subscribers={self.subscriber_ids}, "
            f"delivered={self.delivered_count})"
        )
