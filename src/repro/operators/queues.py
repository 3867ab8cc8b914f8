"""Inter-operator queues for scheduled (non-synchronous) execution.

Section III-B of the paper discusses the setting where the DSMS places a
queue between each producer/consumer pair "to store the partial results not
yet processed by the consumer (in order to enable more flexible operator
scheduling)".  :class:`~repro.multi.shard.ShardEngine` reproduces that
setting: every operator input port owns an :class:`InterOperatorQueue`, the
producer pushes into it, and the operator scheduler decides which operator
consumes next.

Queue contents are charged to the memory model (category ``"queue"``) —
pending partial results occupy memory exactly like state tuples do.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterator, List, Optional, Tuple

from repro.context import ExecutionContext
from repro.metrics import CostKind
from repro.streams.tuples import StreamTuple

__all__ = ["InterOperatorQueue"]

#: Callback ``(queue, nonempty)`` fired when a queue transitions between
#: empty and non-empty.  The hosting shard uses it to maintain its ready-set
#: incrementally instead of rescanning every queue per scheduling step.
ReadinessListener = Callable[["InterOperatorQueue", bool], None]


class InterOperatorQueue:
    """A FIFO queue of tuples between a producer and one consumer port.

    Parameters
    ----------
    name:
        Diagnostic name, conventionally ``"<producer>-><consumer>.<port>"``.
    context:
        Shared execution context for cost/memory accounting.
    capacity:
        Optional bound; pushing beyond it raises ``OverflowError``.  The
        paper assumes unbounded queues ("the size of an inter-operator queue
        is usually small"), so the default is unbounded — the bound exists
        for load-shedding style extensions and for tests.
    """

    def __init__(
        self,
        name: str,
        context: ExecutionContext,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self.name = name
        self.context = context
        self.capacity = capacity
        self._items: Deque[StreamTuple] = deque()
        self.total_pushed = 0
        self.max_length = 0
        #: Empty<->non-empty transition observer (set by the hosting shard).
        self.readiness_listener: Optional[ReadinessListener] = None
        # Queue push/pop is the hottest accounting site of a shard
        # (twice per tuple per hop); bind the model methods once.  The
        # context's models are never replaced, so the bound methods stay
        # valid for the queue's lifetime.
        self._charge = context.cost.charge
        self._allocate = context.memory.allocate
        self._release = context.memory.release

    def push(self, tup: StreamTuple) -> None:
        """Append ``tup`` to the queue."""
        items = self._items
        if self.capacity is not None and len(items) >= self.capacity:
            raise OverflowError(f"queue {self.name!r} exceeded capacity {self.capacity}")
        items.append(tup)
        self.total_pushed += 1
        if len(items) > self.max_length:
            self.max_length = len(items)
        self._charge(CostKind.QUEUE_OP)
        self._allocate(tup.size_bytes, "queue")
        if len(items) == 1 and self.readiness_listener is not None:
            self.readiness_listener(self, True)

    def pop(self) -> StreamTuple:
        """Remove and return the oldest queued tuple."""
        items = self._items
        if not items:
            raise IndexError(f"queue {self.name!r} is empty")
        tup = items.popleft()
        self._charge(CostKind.QUEUE_OP)
        self._release(tup.size_bytes, "queue")
        if not items and self.readiness_listener is not None:
            self.readiness_listener(self, False)
        return tup

    def peek(self) -> Optional[StreamTuple]:
        """Return the oldest queued tuple without removing it, or None."""
        return self._items[0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[StreamTuple]:
        """Iterate queued tuples oldest-first without consuming them."""
        return iter(self._items)

    @property
    def memory_bytes(self) -> int:
        """Modelled bytes currently held in the queue."""
        return sum(t.size_bytes for t in self._items)

    def drain(self) -> List[StreamTuple]:
        """Remove and return all queued tuples, oldest first."""
        out: List[StreamTuple] = []
        while self._items:
            out.append(self.pop())
        return out

    def __repr__(self) -> str:
        return f"InterOperatorQueue({self.name!r}, size={len(self._items)})"
