"""Execution context shared by every component of a running plan.

The context bundles the simulated clock, the cost and memory models and the
global window so that operators, states, JIT structures and the scheduler can
all charge the same accounting objects without the engine threading them
through every call.

It lives at the package top level (rather than inside ``repro.engine``) so
that the operator layer can import it without creating an import cycle with
the engine, which itself imports the operator layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.metrics import CostModel, MemoryModel
from repro.streams.time import SimulationClock, Window

__all__ = ["ExecutionContext", "FeedbackListener"]

#: Callback ``(producer, consumer, kind)`` invoked whenever a JIT feedback
#: message is delivered; ``kind`` is a :class:`~repro.core.feedback.FeedbackKind`
#: constant.  Operator types are untyped here to avoid an import cycle.
FeedbackListener = Callable[[object, object, str], None]


@dataclass
class ExecutionContext:
    """Shared per-run execution state.

    Parameters
    ----------
    window:
        The global sliding window applied to all sources (Section II of the
        paper assumes a single global window; per-operator overrides are
        possible but unused by the evaluation).
    clock:
        The simulated application-time clock, advanced by the engine.
    cost:
        The cost model all components charge for primitive operations.
    memory:
        The memory model tracking modelled bytes in states, blacklists, MNS
        buffers and queues.
    """

    window: Window
    clock: SimulationClock = field(default_factory=SimulationClock)
    cost: CostModel = field(default_factory=CostModel)
    memory: MemoryModel = field(default_factory=MemoryModel)
    #: Observers of the feedback flow (Section III-B): a shard registers its
    #: scheduler here for every hosted context, so policies like
    #: ``jit_aware`` can boost the producer that just received a resumption.
    #: Feedback itself remains a synchronous method call between operators;
    #: listeners only watch.
    feedback_listeners: List[FeedbackListener] = field(default_factory=list)
    #: Optional :class:`~repro.trace.Tracer` observing this context (set by
    #: ``attach_tracer`` on the owning engine/shard).  Untyped to keep the
    #: trace package an optional import; ``None`` costs the feedback path one
    #: attribute load and one branch.
    tracer: Optional[object] = None
    #: Shard index this context executes in, used to label trace spans (0
    #: for single-plan engines).
    trace_shard: int = 0
    #: True only while the traced drain loop is inside an operator step of a
    #: *sampled* trace.  The per-tuple hot-path hooks (tee fan-out, result
    #: emit) key off this plain bool instead of the tracer's thread-local
    #: ``active`` property, so an attached-but-idle tracer costs those paths
    #: a single attribute load.
    trace_live: bool = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    def add_feedback_listener(self, listener: FeedbackListener) -> None:
        """Register a feedback observer (idempotent per listener identity)."""
        if listener not in self.feedback_listeners:
            self.feedback_listeners.append(listener)

    def remove_feedback_listener(self, listener: FeedbackListener) -> None:
        """Deregister a feedback observer (no-op when absent).

        Used when a hosted plan is retired from a shard: the shard's
        scheduler must stop observing the retired context, or a later replay
        of the archived plan would mutate a scheduler it no longer belongs to.
        """
        try:
            self.feedback_listeners.remove(listener)
        except ValueError:
            pass

    def notify_feedback(
        self, producer: object, consumer: object, kind: str, feedback: object = None
    ) -> None:
        """Tell every registered listener that feedback was delivered.

        Called by the operator receiving the message (the *producer* in the
        paper's terminology), so every delivery path — direct sends,
        upstream propagation, cancellation resumes — is observed exactly once.
        ``feedback`` is the delivered :class:`~repro.core.feedback.Feedback`
        itself; listeners keep their original three-argument shape, and the
        tracer (which needs the MNS signatures to pair suspend/resume spans)
        receives it separately.
        """
        for listener in self.feedback_listeners:
            listener(producer, consumer, kind)
        if self.tracer is not None:
            self.tracer.on_feedback(producer, consumer, kind, feedback)
