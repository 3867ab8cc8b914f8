"""Asyncio adapter for the serving layer: backpressure as suspension.

The synchronous :class:`~repro.serve.server.StreamServer` turns a full
buffer under the ``block`` policy into *work* — the submitting caller
drains the engine before its event is accepted.  In a coroutine world that
is the wrong shape: a producer coroutine should *suspend*, yielding the
event loop to whatever makes room, and resume only when space exists.

:class:`AsyncStreamServer` provides that shape.  It owns a plain
``StreamServer`` (so every policy, metric, and accounting rule is exactly
the synchronous one) plus:

* a background **drainer task** that moves buffered events into the engine
  in arrival order, batch by batch, yielding the loop between batches;
* an :class:`asyncio.Condition` producers ``await`` on when the buffer is
  full under ``block`` — a genuine coroutine suspension, woken by the
  drainer after each delivered batch;
* an :class:`asyncio.Event` the drainer sleeps on while the buffer is
  empty, so an idle server costs nothing.

Shedding policies (``drop_oldest``, ``fair_shed``) never suspend the
producer: ``submit`` stays a single scheduling point and the buffer sheds
synchronously, identically to the sync server.

Everything runs on one event loop — no threads are created here — so the
buffer needs no extra locking beyond what the sync server already has.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Optional

from repro.serve.buffers import OverloadPolicy
from repro.serve.server import ServingReport, StreamServer
from repro.streams.tuples import AtomicTuple

__all__ = ["AsyncStreamServer"]


class AsyncStreamServer:
    """Coroutine-friendly front-end over a :class:`StreamServer`.

    Use as an async context manager (or call :meth:`start` explicitly)::

        async with AsyncStreamServer(engine, capacity=256) as server:
            for event in events:
                await server.submit(event)   # suspends when full (block)
        # exiting flushes the buffer and closes the engine

    ``drain_interval`` paces the drainer: it sleeps that many wall-clock
    seconds between delivered batches, modelling a downstream that consumes
    at a finite rate (0.0 — the default — drains as fast as the loop
    allows).  Under a paced drainer an overdriving producer genuinely
    overruns the buffer, so the overload policies visibly engage; see
    ``examples/serving_backpressure.py``.

    Remaining constructor arguments are forwarded to :class:`StreamServer`
    verbatim.
    """

    def __init__(self, engine, drain_interval: float = 0.0, **server_kwargs) -> None:
        if drain_interval < 0:
            raise ValueError(f"drain_interval must be >= 0, got {drain_interval}")
        self.drain_interval = drain_interval
        self.server = StreamServer(engine, **server_kwargs)
        self._space: Optional[asyncio.Condition] = None
        self._data: Optional[asyncio.Event] = None
        self._drainer: Optional[asyncio.Task] = None
        self._running = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "AsyncStreamServer":
        """Create the loop primitives and launch the drainer task."""
        if self._running:
            return self
        self._space = asyncio.Condition()
        self._data = asyncio.Event()
        self._running = True
        self._drainer = asyncio.get_running_loop().create_task(self._drain_loop())
        return self

    async def close(self) -> None:
        """Stop the drainer, flush everything buffered, close the engine."""
        if not self._running:
            return
        self._running = False
        self._data.set()
        if self._drainer is not None:
            await self._drainer
            self._drainer = None
        self.server.close()

    async def __aenter__(self) -> "AsyncStreamServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def _check_started(self) -> None:
        if not self._running:
            raise RuntimeError(
                "AsyncStreamServer is not running; use 'async with' or await start()"
            )

    # -- ingestion -------------------------------------------------------------

    async def submit(self, event: AtomicTuple) -> bool:
        """Submit one event; under ``block`` this awaits buffer space.

        Returns the sync server's verdict: ``True`` when the event entered
        the buffer, ``False`` when admission refused it.
        """
        self._check_started()
        if self.server.policy == OverloadPolicy.BLOCK:
            async with self._space:
                if self.server.buffer.full:
                    # One engagement per full-buffer encounter, matching the
                    # sync server's accounting.
                    self.server.telemetry.get(
                        "serve_backpressure_engagements_total"
                    ).inc()
                    while self.server.buffer.full:
                        await self._space.wait()
        accepted = self.server.submit(event)
        if accepted:
            self._data.set()
            if self.server.buffer.full:
                # An overdriving producer under a shedding policy executes no
                # awaits and would starve the drainer task; yield the loop
                # once per filled buffer so delivery interleaves with intake.
                await asyncio.sleep(0)
        return accepted

    async def submit_many(self, events: Iterable[AtomicTuple]) -> int:
        """Submit a sequence of events; returns how many were admitted."""
        admitted = 0
        for event in events:
            if await self.submit(event):
                admitted += 1
        return admitted

    async def drain(self, max_events: Optional[int] = None) -> int:
        """Deliver buffered events to the engine now, from the caller."""
        self._check_started()
        delivered = self.server.drain(max_events)
        if delivered:
            await self._notify_space()
        return delivered

    async def flush(self) -> int:
        """Drain the whole buffer and run the engine's own barrier."""
        self._check_started()
        delivered = self.server.flush()
        if delivered:
            await self._notify_space()
        return delivered

    # -- the drainer -----------------------------------------------------------

    async def _drain_loop(self) -> None:
        while self._running:
            delivered = self.server.drain(self.server.drain_batch)
            if delivered:
                await self._notify_space()
                # Yield so producers (and everything else) get the loop
                # between batches even when the buffer never empties; a
                # paced drainer sleeps its interval instead.
                await asyncio.sleep(self.drain_interval)
                continue
            self._data.clear()
            if len(self.server.buffer) == 0 and self._running:
                await self._data.wait()

    async def _notify_space(self) -> None:
        async with self._space:
            self._space.notify_all()

    # -- delegation ------------------------------------------------------------

    @property
    def telemetry(self):
        """The underlying :class:`TelemetryRegistry`."""
        return self.server.telemetry

    @property
    def buffer(self):
        """The underlying :class:`BoundedIngestionBuffer`."""
        return self.server.buffer

    def exposition(self) -> str:
        """Prometheus text exposition of every serving metric."""
        return self.server.exposition()

    def report(self) -> ServingReport:
        """Snapshot the serving-side accounting."""
        return self.server.report()

    def results_for(self, query_id: str):
        """Per-query result collector (sharded engines only)."""
        return self.server.results_for(query_id)

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return f"AsyncStreamServer({state}, {self.server!r})"
