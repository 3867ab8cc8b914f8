"""Bounded ingestion buffering and the overload policies.

Between a hot source and the engine sits one
:class:`BoundedIngestionBuffer`: a global-FIFO staging area with a hard
capacity and an explicit policy for the moment it is full.  The paper's
frame (and the "hypothetical answers" line of work in PAPERS.md) demands
that degraded answers be *explicit*: an event is either delivered, or shed
with its shedding accounted per source and policy — never silently lost.

Three policies:

* ``block`` — never shed.  :meth:`BoundedIngestionBuffer.offer` refuses the
  event (returns ``OFFER_BLOCKED``) and the caller must make room first —
  the synchronous server drains the buffer into the engine (backpressure as
  work), the asyncio adapter suspends the producing coroutine.
* ``drop_oldest`` — evict the globally oldest buffered event to admit the
  new one.  Bounds staleness: under sustained overload the buffer always
  holds the freshest ``capacity`` events.
* ``fair_shed`` — evict the oldest event of the *heaviest* source, where
  heaviness is buffered occupancy weighted by how many standing queries
  subscribe to the source (:class:`~repro.multi.router.StreamRouter`
  subscription counts, supplied as ``weight_fn``).  A source fanning into
  many queries imposes the most downstream work per buffered event, so its
  backlog is shed first and light sources keep flowing — per-query
  fairness under overload.

The buffer preserves global arrival order for everything it delivers, so a
non-overloaded workload passes through bit-identically.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.streams.tuples import AtomicTuple

__all__ = [
    "OverloadPolicy",
    "BoundedIngestionBuffer",
    "OFFER_ACCEPTED",
    "OFFER_BLOCKED",
]

#: :meth:`BoundedIngestionBuffer.offer` outcomes.
OFFER_ACCEPTED = "accepted"
OFFER_BLOCKED = "blocked"


class OverloadPolicy:
    """What happens when an event arrives at a full buffer."""

    #: Refuse the event; the caller must drain (backpressure).
    BLOCK = "block"
    #: Evict the globally oldest buffered event.
    DROP_OLDEST = "drop_oldest"
    #: Evict the oldest event of the heaviest (occupancy x subscribers) source.
    FAIR_SHED = "fair_shed"

    ALL = (BLOCK, DROP_OLDEST, FAIR_SHED)


class BoundedIngestionBuffer:
    """A capacity-bounded FIFO of stream events with explicit shedding.

    Parameters
    ----------
    capacity:
        Maximum number of buffered events.
    policy:
        An :class:`OverloadPolicy` constant.
    weight_fn:
        Optional ``source -> weight`` callable used by ``fair_shed``
        (typically the router's per-source standing-query subscriber count).
        Defaults to weight 1 for every source, which degrades fair_shed to
        shedding from the longest per-source backlog.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = OverloadPolicy.BLOCK,
        weight_fn: Optional[Callable[[str], int]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"buffer capacity must be positive, got {capacity}")
        if policy not in OverloadPolicy.ALL:
            raise ValueError(
                f"unknown overload policy {policy!r}; expected one of {OverloadPolicy.ALL}"
            )
        self.capacity = capacity
        self.policy = policy
        self._weight_fn = weight_fn
        self._events: Deque[AtomicTuple] = deque()
        #: Live per-source occupancy of the buffer.
        self.occupancy: Dict[str, int] = {}
        #: Lifetime shed counts per source (all policies).
        self.shed_by_source: Dict[str, int] = {}
        self.shed_total = 0
        self.offered_total = 0
        self.accepted_total = 0
        self.popped_total = 0
        self.high_watermark = 0

    # -- capacity -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    @property
    def full(self) -> bool:
        """True when the buffer holds ``capacity`` events."""
        return len(self._events) >= self.capacity

    # -- ingest side ----------------------------------------------------------

    def offer(self, event: AtomicTuple) -> Tuple[str, List[AtomicTuple]]:
        """Try to buffer ``event``; returns ``(outcome, shed_events)``.

        ``outcome`` is :data:`OFFER_ACCEPTED` or :data:`OFFER_BLOCKED` (the
        latter only under the ``block`` policy, which never sheds).  The
        returned list holds the events evicted to make room — empty unless a
        shedding policy engaged — so the caller can account every loss.
        """
        self.offered_total += 1
        shed: List[AtomicTuple] = []
        if self.full:
            if self.policy == OverloadPolicy.BLOCK:
                self.offered_total -= 1
                return OFFER_BLOCKED, shed
            victim = (
                self._shed_oldest()
                if self.policy == OverloadPolicy.DROP_OLDEST
                else self._shed_heaviest()
            )
            shed.append(victim)
        self._events.append(event)
        self.occupancy[event.source] = self.occupancy.get(event.source, 0) + 1
        self.accepted_total += 1
        if len(self._events) > self.high_watermark:
            self.high_watermark = len(self._events)
        return OFFER_ACCEPTED, shed

    def _account_shed(self, event: AtomicTuple) -> AtomicTuple:
        self.shed_total += 1
        self.shed_by_source[event.source] = self.shed_by_source.get(event.source, 0) + 1
        self._decrement(event.source)
        return event

    def _decrement(self, source: str) -> None:
        remaining = self.occupancy.get(source, 0) - 1
        if remaining > 0:
            self.occupancy[source] = remaining
        else:
            self.occupancy.pop(source, None)

    def _shed_oldest(self) -> AtomicTuple:
        return self._account_shed(self._events.popleft())

    def _shed_heaviest(self) -> AtomicTuple:
        source = self.heaviest_source()
        # Evict that source's oldest buffered event; a linear scan is fine
        # because it only runs on overflow of a small, bounded buffer.
        for index, event in enumerate(self._events):
            if event.source == source:
                del self._events[index]
                return self._account_shed(event)
        raise RuntimeError(f"occupancy claims {source!r} is buffered but it is not")

    def heaviest_source(self) -> str:
        """The source whose buffered traffic imposes the most downstream work.

        Heaviness is ``occupancy * subscriber_weight``; occupancy breaks
        ties (prefer the longer backlog), then the source name (stable).
        """
        if not self.occupancy:
            raise RuntimeError("the buffer is empty")
        weight = self._weight_fn or (lambda source: 1)
        return max(
            self.occupancy,
            key=lambda source: (
                self.occupancy[source] * max(1, weight(source)),
                self.occupancy[source],
                source,
            ),
        )

    # -- drain side -----------------------------------------------------------

    def pop(self) -> AtomicTuple:
        """Remove and return the oldest buffered event."""
        event = self._events.popleft()
        self._decrement(event.source)
        self.popped_total += 1
        return event

    def pop_batch(self, max_events: Optional[int] = None) -> List[AtomicTuple]:
        """Remove up to ``max_events`` oldest events (all, when ``None``)."""
        limit = len(self._events) if max_events is None else min(max_events, len(self._events))
        return [self.pop() for _ in range(limit)]

    def __repr__(self) -> str:
        return (
            f"BoundedIngestionBuffer({len(self._events)}/{self.capacity}, "
            f"policy={self.policy}, shed={self.shed_total})"
        )
