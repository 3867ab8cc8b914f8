"""The shared virtual clock of the sharded multi-query engine.

Every shard hosts an independent set of plans, but all shards serve the same
logical streams, so their notions of "now" — which drive window purge floors
and MNS horizons — must stay mutually consistent.  Two rules make that so:

* No shard may run **ahead** of the global ingestion watermark: a shard's
  clock only ever advances to the timestamp of an event the router has
  already observed, so a purge floor computed on one shard can never exceed
  ``watermark - w`` while another shard still has pre-watermark work queued.
* Shards may **lag** the watermark (process-mode workers drain their
  pipes behind the ingesting parent), but a lagging shard's clock is
  exactly the clock a standalone engine would have after the same prefix
  of its subscribed events — purge and MNS decisions are therefore
  identical to standalone execution, which is what the result-equivalence
  tests assert.

:class:`SharedVirtualClock` owns the watermark and hands out one
:class:`ShardClock` view per shard.
"""

from __future__ import annotations

import threading

from repro.streams.time import SimulationClock

__all__ = ["SharedVirtualClock", "ShardClock"]


class ShardClock(SimulationClock):
    """One shard's view of the shared virtual clock.

    Behaves exactly like the engine's :class:`SimulationClock` — operators
    read ``.now``, the shard advances it per ingested event — but refuses to
    advance past the shared ingestion watermark, which pins every shard's
    purge floors and MNS horizons at or behind global ingestion.
    """

    def __init__(self, shared: "SharedVirtualClock", name: str) -> None:
        super().__init__()
        self._shared = shared
        self.name = name

    def advance_to(self, ts: float) -> float:
        if ts > self._shared.watermark:
            raise RuntimeError(
                f"shard clock {self.name!r} cannot run ahead of the ingestion "
                f"watermark: requested {ts}, watermark {self._shared.watermark}"
            )
        return super().advance_to(ts)


class SharedVirtualClock:
    """Global ingestion watermark plus per-shard clock views.

    The router calls :meth:`observe` with each submitted event's timestamp
    (in stream order); shards advance their own :class:`ShardClock` views
    as they drain.  Reading the watermark is lock-free (a float read is
    atomic under the GIL); updating it takes a lock so a serving
    front-end's ``flush`` racing a closing source stays safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._watermark = 0.0
        self._started = False

    @property
    def watermark(self) -> float:
        """Timestamp of the latest event observed at the ingestion boundary."""
        return self._watermark

    def observe(self, ts: float) -> None:
        """Record that an event with timestamp ``ts`` entered the system."""
        with self._lock:
            if ts > self._watermark or not self._started:
                self._watermark = ts
            self._started = True

    def view(self, name: str) -> ShardClock:
        """Create one shard's clock view."""
        return ShardClock(self, name)

    def __repr__(self) -> str:
        return f"SharedVirtualClock(watermark={self._watermark})"
