"""Concrete operator-scheduling policies.

Two policies implement the delta interface of
:mod:`repro.scheduler.scheduler`, each over lazy-invalidation heaps so a
scheduling step costs O(log ready):

* :class:`FIFOScheduler` — run the input whose head tuple is oldest, which
  preserves global temporal order of processing (the default, and the policy
  whose results must match synchronous execution exactly).  A min-heap keyed
  on ``(head_ts, order)``.
* :class:`JITAwareScheduler` — FIFO order plus the paper's Section III-B
  rules: after a resumption the producer is temporarily preferred over its
  consumer; after a suspension the handling (receiving) operator is
  preferred over its upstream operators.  The FIFO heap plus a boosted
  *priority band* heap that boosted ready inputs jump into.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.feedback import FeedbackKind
from repro.operators.base import Operator
from repro.scheduler.scheduler import OperatorScheduler, ReadyInput

__all__ = [
    "FIFOScheduler",
    "JITAwareScheduler",
    "build_scheduler",
]


class _LazyHeap:
    """A min-heap over (key, order) pairs with lazy invalidation.

    ``set`` registers or refreshes an entry for ``order``; superseded heap
    records are left in place and skipped on pop because they no longer
    match the currently registered key.  ``pop_min`` returns the order with
    the smallest key and *consumes* its entry — per the scheduler
    contract, the caller re-registers the order (``set``) if it stays ready
    or drops it (``discard``) when its queue empties.
    """

    __slots__ = ("_heap", "_keys")

    def __init__(self) -> None:
        self._heap: List[Tuple[tuple, int]] = []
        self._keys: Dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, order: int) -> bool:
        return order in self._keys

    def set(self, order: int, key: tuple) -> None:
        self._keys[order] = key
        heappush(self._heap, (key, order))

    def discard(self, order: int) -> None:
        self._keys.pop(order, None)

    def pop_min(self) -> int:
        """Return and consume the order with the minimal current key."""
        heap = self._heap
        keys = self._keys
        while True:
            key, order = heappop(heap)
            if keys.get(order) == key:
                del keys[order]
                return order


def _fifo_key(item: ReadyInput) -> Tuple[float, int]:
    """FIFO heap key: oldest head first, registration order as tie-break.

    Reads the queue's deque directly rather than through the ``head_ts``
    property chain — this runs once per queue transition and once per served
    tuple, the hottest spots of a scheduling step.
    """
    items = item.queue._items
    return (items[0].ts if items else float("inf"), item.order)


class FIFOScheduler(OperatorScheduler):
    """Run the ready input with the oldest head tuple (global FIFO)."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._heap = _LazyHeap()

    def on_ready(self, item: ReadyInput) -> None:
        self._ready[item.order] = item
        self._heap.set(item.order, _fifo_key(item))

    def on_unready(self, item: ReadyInput) -> None:
        self._ready.pop(item.order, None)
        self._heap.discard(item.order)

    def on_head_change(self, item: ReadyInput) -> None:
        self._heap.set(item.order, _fifo_key(item))

    def pop_next(self) -> ReadyInput:
        return self._ready[self._heap.pop_min()]


class JITAwareScheduler(OperatorScheduler):
    """FIFO plus the temporary priority boosts of Section III-B.

    The engine calls :meth:`notify_feedback` whenever feedback flows.  A
    *resumption* boosts the producer — the operator that received the
    message and must regenerate the requested partial results — so the
    consumer does not sit idle waiting for them.  A *suspension* boosts the
    handling (receiving side's downstream) operator — the consumer that
    detected the MNS and sent the message — over its upstream operators, so
    it drains the arrivals that may complete the missing partners before
    more upstream work piles in.

    A boost entitles the operator to ``boost_steps`` *served* scheduling
    decisions ahead of FIFO order.  It decays only when consumed — i.e. when
    the boosted operator actually had a ready input and was served — never
    while the operator has nothing to run, so a boost cannot expire before
    the boosted operator runs once.  When several boosted operators are
    ready at the same step, the one with the oldest head timestamp runs
    first (registration order as tie-break), mirroring the FIFO rule inside
    the boosted band.
    """

    name = "jit_aware"

    def __init__(self, boost_steps: int = 8) -> None:
        if boost_steps <= 0:
            raise ValueError(f"boost_steps must be positive, got {boost_steps}")
        super().__init__()
        self.boost_steps = boost_steps
        #: Serving counters surfaced through :meth:`stats` (telemetry): how
        #: many boosts feedback granted and how many scheduling decisions
        #: were actually taken from the boosted band.  Both sit off the
        #: per-tuple hot path (feedback and boosted servings are rare).
        self.boosts_granted = 0
        self.boosted_servings = 0
        #: id(operator) -> remaining boosted servings.  Boosts are
        #: short-lived by construction (consumed within ``boost_steps``
        #: servings); ``retire`` drops any left by retired operators.
        self._boosts: Dict[int, int] = {}
        self._fifo_heap = _LazyHeap()
        #: The boosted priority band: ready inputs of boosted operators.
        self._boost_heap = _LazyHeap()
        #: id(operator) -> ready orders, to move inputs in/out of the band.
        self._by_op: Dict[int, Set[int]] = {}

    def notify_feedback(self, producer: Operator, consumer: Operator, kind: str) -> None:
        # Suspension-like feedback boosts the sending (downstream handling)
        # operator; resumption-like feedback boosts the receiving producer.
        if kind in (FeedbackKind.SUSPEND, FeedbackKind.MARK):
            target = consumer
        else:
            target = producer
        op = id(target)
        self.boosts_granted += 1
        self._boosts[op] = self.boost_steps
        for order in self._by_op.get(op, ()):
            item = self._ready[order]
            self._boost_heap.set(order, _fifo_key(item))

    def _consume_boost(self, operator: Operator) -> None:
        """One boosted serving happened; expire the boost when used up."""
        self.boosted_servings += 1
        op = id(operator)
        remaining = self._boosts.get(op, 0) - 1
        if remaining > 0:
            self._boosts[op] = remaining
            return
        self._boosts.pop(op, None)
        for order in self._by_op.get(op, ()):
            self._boost_heap.discard(order)

    def on_ready(self, item: ReadyInput) -> None:
        self._ready[item.order] = item
        key = _fifo_key(item)
        self._fifo_heap.set(item.order, key)
        op = id(item.operator)
        self._by_op.setdefault(op, set()).add(item.order)
        if self._boosts.get(op, 0) > 0:
            self._boost_heap.set(item.order, key)

    def on_unready(self, item: ReadyInput) -> None:
        self._ready.pop(item.order, None)
        self._fifo_heap.discard(item.order)
        self._boost_heap.discard(item.order)
        op = id(item.operator)
        orders = self._by_op.get(op)
        if orders is not None:
            orders.discard(item.order)
            if not orders:
                del self._by_op[op]

    def on_head_change(self, item: ReadyInput) -> None:
        key = _fifo_key(item)
        self._fifo_heap.set(item.order, key)
        if self._boosts.get(id(item.operator), 0) > 0:
            self._boost_heap.set(item.order, key)

    def pop_next(self) -> ReadyInput:
        if len(self._boost_heap):
            order = self._boost_heap.pop_min()
            item = self._ready[order]
            # Consumed from the band; the FIFO entry is superseded too and
            # re-registered by the follow-up on_head_change / on_unready.
            self._fifo_heap.discard(order)
            self._consume_boost(item.operator)
            return item
        return self._ready[self._fifo_heap.pop_min()]

    def retire(self, items: Iterable[ReadyInput]) -> None:
        for item in items:
            self.on_unready(item)
            op = id(item.operator)
            if op not in self._by_op:
                self._boosts.pop(op, None)

    def stats(self) -> dict:
        return {
            "boosts_granted": self.boosts_granted,
            "boosted_servings": self.boosted_servings,
        }


_POLICIES = {
    FIFOScheduler.name: FIFOScheduler,
    JITAwareScheduler.name: JITAwareScheduler,
}


def build_scheduler(name: str = "fifo", **kwargs) -> OperatorScheduler:
    """Build a scheduler by policy name (``fifo`` or ``jit_aware``).

    Keyword arguments are forwarded to the policy constructor — e.g.
    ``build_scheduler("jit_aware", boost_steps=16)`` for the boost-steps
    sweep in ``benchmarks/bench_throughput.py``.
    """
    try:
        policy = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
    return policy(**kwargs)
