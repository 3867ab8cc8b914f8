"""The operator-scheduler interface.

A shard running the queued setting repeatedly decides which *ready input*
— a non-empty (operator, port, queue) triple — to run next.  The shard pushes
*deltas* into the scheduler — :meth:`OperatorScheduler.on_ready` when a
queue becomes non-empty, :meth:`~OperatorScheduler.on_unready` when it
empties, and :meth:`~OperatorScheduler.on_head_change` after each pop that
leaves the queue non-empty — and asks :meth:`~OperatorScheduler.pop_next`
for the next input to serve.  Policies maintain indexed structures (lazy
heaps) under those deltas, so one scheduling step costs O(log ready).

A scheduler never mutates queues or operators.  Scheduler instances are
stateful (ready set, boosts, heaps) and belong to exactly one scheduler
domain — one shard.  Every delta and every ``pop_next`` of a domain is
issued by the one thread driving it, so no locking is needed inside the
policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.operators.base import Operator
from repro.operators.queues import InterOperatorQueue

__all__ = ["ReadyInput", "OperatorScheduler"]


@dataclass(frozen=True)
class ReadyInput:
    """One runnable unit of work: an operator port with a non-empty queue."""

    operator: Operator
    port: str
    queue: InterOperatorQueue
    #: Stable registration index of the (operator, port) pair within the
    #: scheduler domain.  Policies tie-break on it, so scheduling decisions
    #: are independent of the order in which queues happened to become
    #: non-empty.  Orders are unique within a domain and never reused, which
    #: also makes them the stable identity for scheduler bookkeeping (the
    #: ready map, heap keys) — unlike ``id(operator)``, which CPython can
    #: reuse after garbage collection.
    order: int = 0

    @property
    def head_ts(self) -> float:
        """Timestamp of the oldest queued tuple (infinity when empty)."""
        head = self.queue.peek()
        return head.ts if head is not None else float("inf")


class OperatorScheduler:
    """Base class for operator scheduling policies.

    The contract: the engine calls :meth:`on_ready` /
    :meth:`on_unready` on every empty<->non-empty queue transition,
    :meth:`pop_next` to obtain the input to serve, then pops exactly one
    tuple from its queue and — when the queue stays non-empty —
    :meth:`on_head_change` before running the operator.  ``pop_next``
    *consumes* the scheduler's entry for that input; the follow-up
    ``on_head_change`` / ``on_unready`` re-registers or drops it.  A queue's
    head tuple only changes when the scheduler itself pops it, so keys
    computed at registration time stay valid until then.

    The base class owns the ready set: ``_ready`` maps each ready input's
    :attr:`ReadyInput.order` to the input.  A policy adds an input to it in
    :meth:`on_ready` and removes it in :meth:`on_unready`; :meth:`ready_count`
    and :meth:`ready_items` read it, so a policy implements only the four
    delta and decision methods.
    """

    name = "base"

    def __init__(self) -> None:
        self._ready: Dict[int, ReadyInput] = {}

    # -- ready-set deltas and the scheduling decision -----------------------------

    def on_ready(self, item: ReadyInput) -> None:
        """``item``'s queue just became non-empty."""
        raise NotImplementedError

    def on_unready(self, item: ReadyInput) -> None:
        """``item``'s queue just became empty."""
        raise NotImplementedError

    def on_head_change(self, item: ReadyInput) -> None:
        """``item`` was served, its queue popped, and a new head is exposed."""
        raise NotImplementedError

    def pop_next(self) -> ReadyInput:
        """Return (and consume the entry of) the ready input to run next.

        Only called while :meth:`ready_count` is positive.
        """
        raise NotImplementedError

    def ready_count(self) -> int:
        """Number of currently ready inputs."""
        return len(self._ready)

    # -- lifecycle ----------------------------------------------------------------

    def retire(self, items: Iterable[ReadyInput]) -> None:
        """Forget every trace of ``items`` (a retired plan's templates).

        Long-lived multi-plan domains retire plans (live migration,
        deregistration); schedulers must drop ready entries *and* any
        per-identity history so domain state cannot grow without bound.
        The default drops each item through :meth:`on_unready`; a policy
        with per-operator records extends it.
        """
        for item in items:
            self.on_unready(item)

    def notify_feedback(self, producer: Operator, consumer: Operator, kind: str) -> None:
        """Hook invoked by the engine when feedback flows between operators.

        ``producer`` is the operator that *received* the message (the
        paper's producer side), ``consumer`` the downstream operator that
        sent it.  Policies that implement the paper's Section III-B priority
        rules use this to apply temporary boosts; the default ignores it.
        """

    def stats(self) -> dict:
        """Policy-specific serving counters for the telemetry surface.

        Stateless policies report nothing; ``jit_aware`` reports its boost
        grants and boosted servings.  Keys are metric-suffix-friendly
        snake_case names mapping to numbers.
        """
        return {}

    # -- health introspection (read-only, off the hot path) -----------------------

    def ready_items(self) -> Tuple[ReadyInput, ...]:
        """The currently ready inputs.

        Surfaces the ``_ready`` map for observers (the health monitor,
        diagnostic bundles).  Pull-only: nothing here runs per tuple.
        """
        return tuple(self._ready.values())

    def starvation_ages(self, watermark: float) -> Dict[int, float]:
        """Virtual seconds each ready queue's head tuple has been waiting.

        Starvation age is ``watermark - head_ts`` clamped at zero: how far
        the domain's newest observed timestamp has run ahead of the oldest
        tuple still queued at each ready input, keyed by the input's stable
        :attr:`ReadyInput.order`.  Zero across the board means the domain
        is quiescent (every queue drained); a persistently large age names
        the queue a policy is starving.
        """
        ages: Dict[int, float] = {}
        for item in self.ready_items():
            head = item.head_ts
            if head != float("inf"):
                age = watermark - head
                ages[item.order] = age if age > 0.0 else 0.0
        return ages

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
