"""Operator framework: ports, producer/consumer wiring and emission.

An execution plan is a tree (or, for Eddies, a hub-and-spoke graph) of
operators connected through the producer/consumer relationship central to the
paper.  This module defines the :class:`Operator` base class and the wiring
primitives shared by every concrete operator:

* *Ports* name an operator's inputs (``left``/``right`` for binary joins,
  ``input`` for unary operators).
* Each input port may be fed either by a raw streaming source or by an
  upstream operator (its *producer*); the wiring is recorded so that JIT
  consumers know where to send feedback.
* :meth:`Operator.emit` forwards a produced tuple to the downstream consumer
  — directly in the synchronous setting (depth-first push, what
  :class:`~repro.engine.engine.ExecutionEngine` runs) or through an
  inter-operator queue in the queued setting (Section III-B's scheduler
  setting, what :class:`~repro.multi.shard.ShardEngine` runs).
* :meth:`Operator.supports_production_control` is the one question JIT's
  feedback mechanism asks a producer.  The base answer is False: such an
  operator is never sent feedback, which is always legal ("OP may decide to
  ignore the message", Section III-A) and is exactly what the REF baseline
  does.  Only :class:`~repro.core.jit_join.JITJoinOperator` answers True and
  implements the producer side: ``handle_feedback``, which returns the
  partial results a resumption produced, and ``suspension_alive``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Optional, Tuple

from repro.context import ExecutionContext
from repro.metrics import CostKind
from repro.streams.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.operators.queues import InterOperatorQueue

__all__ = ["PORT_LEFT", "PORT_RIGHT", "PORT_INPUT", "Operator", "ResultSink"]

#: Port name of a binary operator's left input.
PORT_LEFT = "left"
#: Port name of a binary operator's right input.
PORT_RIGHT = "right"
#: Port name of a unary operator's single input.
PORT_INPUT = "input"

#: Callable receiving tuples emitted by the plan's root operator.
ResultSink = Callable[[StreamTuple], None]


class Operator(ABC):
    """Base class of every plan operator.

    Subclasses implement :meth:`process` (consume one input tuple on a port)
    and :meth:`output_sources` (which sources the operator's output covers).
    Stateful operators override :meth:`on_attach` to build their states once
    the execution context is known.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.context: Optional[ExecutionContext] = None
        #: Downstream consumer and the port of that consumer we feed, if any.
        self.consumer: Optional["Operator"] = None
        self.consumer_port: Optional[str] = None
        #: Upstream producer per port (None when the port is fed by a source).
        self.producers: Dict[str, Optional["Operator"]] = {}
        #: Source name per port when fed directly by a stream, else None.
        self.port_sources: Dict[str, Optional[str]] = {}
        #: Result sink used when this operator is the plan root.
        self.result_sink: Optional[ResultSink] = None
        #: Outgoing queue (set only when a shard hosts the plan).
        self.output_queue: Optional["InterOperatorQueue"] = None
        #: Number of tuples this operator has emitted downstream.
        self.emitted_count = 0

    # -- wiring ---------------------------------------------------------------

    @property
    @abstractmethod
    def ports(self) -> Tuple[str, ...]:
        """Names of this operator's input ports."""

    @abstractmethod
    def output_sources(self) -> FrozenSet[str]:
        """The set of source names covered by this operator's output tuples."""

    @abstractmethod
    def input_sources(self, port: str) -> FrozenSet[str]:
        """The set of source names covered by tuples arriving on ``port``."""

    def connect_producer(self, port: str, producer: "Operator") -> None:
        """Wire ``producer``'s output into this operator's ``port``."""
        self._check_port(port)
        self.producers[port] = producer
        self.port_sources[port] = None
        producer.consumer = self
        producer.consumer_port = port

    def connect_source(self, port: str, source_name: str) -> None:
        """Feed ``port`` directly from the stream ``source_name``."""
        self._check_port(port)
        self.producers[port] = None
        self.port_sources[port] = source_name

    def producer_of(self, port: str) -> Optional["Operator"]:
        """The upstream operator feeding ``port``, or None if fed by a source."""
        self._check_port(port)
        return self.producers.get(port)

    def _check_port(self, port: str) -> None:
        if port not in self.ports:
            raise KeyError(f"operator {self.name!r} has no port {port!r}; ports: {self.ports}")

    # -- lifecycle --------------------------------------------------------------

    def attach(self, context: ExecutionContext) -> None:
        """Bind the operator to an execution context and build its state."""
        self.context = context
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclasses to build operator states; default does nothing."""

    def require_context(self) -> ExecutionContext:
        """Return the attached context, raising if the operator is unattached."""
        if self.context is None:
            raise RuntimeError(
                f"operator {self.name!r} is not attached to an execution context"
            )
        return self.context

    # -- consumer side ------------------------------------------------------------

    @abstractmethod
    def process(self, tup: StreamTuple, port: str) -> None:
        """Consume one input tuple arriving on ``port``."""

    # -- producer side --------------------------------------------------------------

    def supports_production_control(self) -> bool:
        """True if this operator reacts to suspension/resumption feedback."""
        return False

    # -- emission -----------------------------------------------------------------

    def emit(self, tup: StreamTuple) -> bool:
        """Forward ``tup`` downstream.

        Returns True if the tuple was delivered (or queued / collected), which
        lets JIT producers notice mid-probe that their current work has become
        unnecessary: a consumer may, while synchronously processing the
        emitted tuple, send back a suspension feedback.
        """
        context = self.require_context()
        context.cost.charge(CostKind.RESULT_BUILD)
        self.emitted_count += 1
        if self.consumer is None:
            if self.result_sink is not None:
                self.result_sink(tup)
                if context.trace_live:
                    context.tracer.record_result_emit(self.name, tup.ts)
            return True
        if self.output_queue is not None:
            self.output_queue.push(tup)
            return True
        assert self.consumer_port is not None
        self.consumer.process(tup, self.consumer_port)
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class UnaryOperator(Operator, ABC):
    """Convenience base class for single-input operators."""

    @property
    def ports(self) -> Tuple[str, ...]:
        return (PORT_INPUT,)

    def input_sources(self, port: str) -> FrozenSet[str]:
        self._check_port(port)
        return self.output_sources()
