"""Worker backends: how a sharded engine's shards are driven.

The :class:`~repro.multi.sharded.ShardedEngine` decides *where* each event
goes (router) and *what* every shard hosts (placement + registry); a
**worker backend** decides *how* the receiving shard is driven:

* :class:`InlineBackend` (``drain_mode="sync"``) — the submitting thread
  drains each receiving shard before returning.  Fully deterministic; the
  mode the equivalence tests anchor on.
* :class:`ProcessBackend` (``drain_mode="process"``) — one worker *process*
  per shard, fed one pickled ``evt`` frame per routed event over a pipe.
  Each worker owns a full :class:`~repro.multi.shard.ShardEngine` plus its own
  :class:`~repro.multi.clock.SharedVirtualClock`; the parent ships the
  global ingestion watermark as a plain number with every command, and the
  worker ships per-query results and its shard's suspension/resumption
  counts on acknowledgements, :meth:`~repro.multi.shard.ShardEngine.snapshot`
  on barrier replies and (when tracing) spans back over the same pipe.  This
  is the mode that scales with cores (see ``docs/SCALING.md``).

The contract both backends honour, which is what keeps per-query results
bit-identical across the two modes: each shard processes **its own feed in
arrival order**, and plans never span shards — a backend changes *when* and
*where* work happens, never *what* is computed.

The process worker protocol (plain picklable tuples over a
``multiprocessing.Pipe``):

====================================  =======================================
parent -> worker                      worker -> parent
====================================  =======================================
``("host", token, entries)``          ``("hosted", token, snapshot)``
``("retire", query_id)``              ``("retired", query_id, consumes, snap)``
``("evt", event, ctx, watermark)``    ``("ack", n, results, susp, res)``
``("flush", token)``                  ``("flushed", token, snap, trace)``
``("tracer", spec)``
``("close",)``                        ``("bye", reason)``
anything failing on the worker        ``("err", shard_id, traceback)``
====================================  =======================================

A ``host`` frame carries a shard's whole ordered list of registrations — all
of them at construction and on ``restart_worker``, one on ``add_query`` — and
``hosted`` is the only reply a worker sends before its first event: there is
no separate start-up handshake.

Acks are coalesced: a worker under sustained load batches its
acknowledgements (and the result tuples riding on them) until the command
pipe is empty or a flush barrier arrives, so reply traffic amortizes over
bursts, and results leave the worker as soon as it has nothing else to read.
"""

from __future__ import annotations

import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import multiprocessing as _mp

from repro.engine.results import ResultCollector
from repro.metrics import MetricsReport
from repro.multi.clock import SharedVirtualClock
from repro.multi.registry import RegisteredQuery
from repro.multi.shard import PlanRuntime, ShardEngine
from repro.scheduler import OperatorScheduler, build_scheduler

__all__ = [
    "ShardWorkerError",
    "InlineBackend",
    "ProcessBackend",
    "RemotePlanRuntime",
    "make_scheduler",
    "resolve_drain_mode",
    "DRAIN_MODES",
]

#: The drain modes a :class:`~repro.multi.sharded.ShardedEngine` accepts.
DRAIN_MODES = ("sync", "process")


class ShardWorkerError(RuntimeError):
    """A shard worker process failed or went away.

    The message always names the shard, so an operator reading a crash log
    (or a test asserting on it) knows which worker to look at.
    """


def resolve_drain_mode(drain_mode: Optional[str]) -> str:
    """Validate ``drain_mode`` (``None`` means ``"sync"``)."""
    if drain_mode is None:
        return "sync"
    if drain_mode not in DRAIN_MODES:
        raise ValueError(
            f"unknown drain_mode {drain_mode!r}; expected one of {DRAIN_MODES}"
        )
    return drain_mode


def make_scheduler(scheduler: Union[str, Callable[[], object]]) -> OperatorScheduler:
    """Build one shard's scheduler from a policy name or a zero-arg factory."""
    if isinstance(scheduler, str):
        return build_scheduler(scheduler)
    if callable(scheduler):
        made = scheduler()
        if not isinstance(made, OperatorScheduler):
            raise TypeError(
                f"scheduler factory returned {type(made).__name__}, "
                "expected an OperatorScheduler"
            )
        return made
    raise TypeError(
        "scheduler must be a policy name or a zero-argument factory; "
        f"got {scheduler!r} (schedulers are stateful, so instances cannot "
        "be shared across shards)"
    )


#: What ``host`` takes on every backend: shard id -> that shard's
#: registrations, in the order the shard must host them (registration order:
#: shared-subplan grafting and scheduler tie-breaks depend on it).
Placements = Mapping[int, Sequence[RegisteredQuery]]


# ----------------------------------------------------------------- inline


class InlineBackend:
    """``drain_mode="sync"``: the submitting thread drains shards directly."""

    kind = "sync"

    def __init__(self, shards: Sequence[ShardEngine]) -> None:
        self.shards = list(shards)

    def host(self, placements: Placements) -> Dict[str, PlanRuntime]:
        return {
            entry.query_id: self.shards[shard_id].host(entry)
            for shard_id, entries in placements.items()
            for entry in entries
        }

    def retire(self, shard_id: int, query_id: str):
        shard = self.shards[shard_id]
        return shard.retire_plan(query_id), shard.consumes

    def dispatch(self, shard_id, event, trace_ctx=None, watermark=0.0) -> None:
        # The trace context is already active on this thread (begin_trace
        # ran here), so it is not re-activated — same as the historical
        # synchronous path.
        self.shards[shard_id].process_event(event)

    def barrier(self) -> None:
        pass

    def barrier_shard(self, shard_id: int) -> None:
        pass

    def metrics(self, shard_id: int) -> MetricsReport:
        return self.shards[shard_id].metrics()

    def attach_tracer(self, tracer) -> None:
        for shard in self.shards:
            shard.attach_tracer(tracer)

    def worker_liveness(self) -> Dict[int, int]:
        return {shard.shard_id: 1 for shard in self.shards}

    def worker_restarts(self) -> Dict[int, int]:
        return {shard.shard_id: 0 for shard in self.shards}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- process


@dataclass(frozen=True)
class _ShardSpec:
    """Everything a worker process needs to build its ShardEngine."""

    shard_id: int
    scheduler: Union[str, Callable[[], object]]
    share_subplans: bool


@dataclass
class RemotePlanRuntime:
    """The parent-side mirror of one query hosted on a worker process.

    Quacks like a :class:`~repro.multi.shard.PlanRuntime` for everything the
    serving layer reads — ``registered``, ``shard_id``, ``collector``,
    ``set_result_sink`` — but its ``plan`` and ``context`` are ``None``: the
    live operator graph exists only in the worker.  Result tuples shipped
    back on acknowledgements are delivered through the installed sink in
    emission order, so mirror collectors hold bit-identical sequences to a
    synchronous run's.
    """

    registered: RegisteredQuery
    shard_id: int
    collector: ResultCollector
    plan: Optional[object] = None
    context: Optional[object] = None
    shared: Optional[object] = None
    templates: Tuple = ()
    _sink: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._sink is None:
            self._sink = self.collector.add

    @property
    def query_id(self) -> str:
        return self.registered.query_id

    def set_result_sink(self, sink) -> None:
        """Install the callable receiving this query's shipped results."""
        self._sink = sink

    def _deliver(self, tup) -> None:
        self._sink(tup)

    def __repr__(self) -> str:
        return (
            f"RemotePlanRuntime({self.query_id!r}, shard={self.shard_id}, "
            f"results={self.collector.count})"
        )


class _SchedulerSnapshot:
    """A remote scheduler's last shipped stats, shaped like a scheduler."""

    def __init__(self, handle: "_WorkerHandle") -> None:
        self._handle = handle

    def stats(self) -> Dict[str, float]:
        return dict(self._handle.snapshot["scheduler_stats"])


class _CostSnapshot:
    """A remote cost model's last shipped counters, shaped like a CostModel."""

    def __init__(self, handle: "_WorkerHandle") -> None:
        self._handle = handle

    def count(self, kind: str) -> int:
        return self._handle.snapshot["cost_counters"].get(kind, 0)


def _shipped(key: str) -> property:
    return property(
        lambda self: self._handle.snapshot[key],
        doc=f"``{key}`` of the worker's last shipped snapshot.",
    )


def _acked(key: str) -> property:
    return property(
        lambda self: getattr(self._handle, key),
        doc=f"``{key}``, summed over the worker's acknowledgements.",
    )


class ProcessShardProxy:
    """The parent-side face of one worker process's shard.

    Exposes the read surface of a local :class:`ShardEngine` under the same
    names — :meth:`snapshot` and its fields, ``cost``/``scheduler``,
    ``metrics()``, :meth:`health_stats`, and the live
    ``suspensions_total``/``resumptions_total`` — backed by the worker's
    last shipped :meth:`ShardEngine.snapshot` (refreshed at every host,
    retire and flush reply), the counts its acknowledgements carry, and the
    live in-flight count (events dispatched but not yet acknowledged).
    """

    queue_count = _shipped("queue_count")
    events_processed = _shipped("events_processed")
    results_produced = _shipped("results_produced")
    shared_subplans_active = _shipped("shared_subplans_active")
    shared_subplan_hits = _shipped("shared_subplan_hits")
    sources = _shipped("sources")
    suspensions_total = _acked("suspensions_total")
    resumptions_total = _acked("resumptions_total")

    def __init__(self, handle: "_WorkerHandle") -> None:
        self._handle = handle
        self.shard_id = handle.shard_id
        self.scheduler = _SchedulerSnapshot(handle)
        self.cost = _CostSnapshot(handle)

    @property
    def queue_depth(self) -> int:
        """Worker-reported inter-operator depth plus unacknowledged events."""
        return self._handle.snapshot["queue_depth"] + self._handle.in_flight

    def snapshot(self) -> Dict[str, object]:
        """The worker's last shipped :meth:`ShardEngine.snapshot`."""
        return dict(self._handle.snapshot)

    def metrics(self) -> MetricsReport:
        return self._handle.snapshot["metrics"]

    def health_stats(self) -> Dict[str, object]:
        """Heartbeat + progress facts for the health monitor's watchdog.

        Combines the worker's last shipped progress (watermark, starvation
        and MNS ages — refreshed at every barrier/flush) with the live
        parent-side heartbeat: ``last_progress`` is the wall instant of the
        worker's last pipe message of any kind, ``in_flight`` the events
        dispatched but not yet acknowledged.  A stalled worker is alive
        with ``in_flight > 0`` and a stale ``last_progress``.
        """
        handle = self._handle
        return {
            "alive": handle.is_alive(),
            "in_flight": handle.in_flight,
            "acked_events": handle.acked_events,
            "last_progress": handle.last_progress,
            **handle.snapshot["progress"],
        }

    def __repr__(self) -> str:
        return (
            f"ProcessShardProxy(id={self.shard_id}, alive={self._handle.alive}, "
            f"in_flight={self._handle.in_flight})"
        )


# -- the worker process side ------------------------------------------------


class _WorkerState:
    """Everything the worker loop mutates while serving commands."""

    def __init__(self, spec: _ShardSpec) -> None:
        self.spec = spec
        self.clock = SharedVirtualClock()
        self.shard = ShardEngine(
            shard_id=spec.shard_id,
            scheduler=make_scheduler(spec.scheduler),
            clock=self.clock.view(f"shard-{spec.shard_id}"),
            # The worker never retains result tuples: results ship to the
            # parent's mirror collectors, which honour keep_results there.
            keep_results=False,
            share_subplans=spec.share_subplans,
        )
        self.tracer = None
        #: Per-query result tuples produced since the last acknowledgement.
        self.fresh_results: List[Tuple[str, object]] = []
        self.events_since_ack = 0
        #: The shard's feedback totals as of the last acknowledgement; each
        #: ack carries the difference.
        self.feedback_acked = (0, 0)
        self.mns_closed_shipped = 0

    def host(self, entries: Sequence[RegisteredQuery]) -> None:
        """Host one ``host`` frame's registrations, in the order given."""
        fresh = self.fresh_results
        for entry in entries:
            runtime = self.shard.host(entry)

            def sink(
                tup, _qid=entry.query_id, _add=runtime.collector.add, _out=fresh
            ) -> None:
                _add(tup)
                _out.append((_qid, tup))

            runtime.set_result_sink(sink)

    def retire(self, query_id: str) -> Dict[str, bool]:
        retired = self.shard.retire_plan(query_id)
        return {
            source: self.shard.consumes(source)
            for source in retired.registered.sources
        }

    def process(self, event, trace_ctx, watermark: float) -> None:
        self.clock.observe(watermark)
        self.shard.process_event(event, trace_ctx=trace_ctx)
        self.events_since_ack += 1

    def attach_tracer(self, spec: Dict[str, object]) -> None:
        # Imported lazily: the trace layer is optional on the hot path.
        from repro.trace import Tracer

        tracer = Tracer(
            sample_rate=float(spec["sample_rate"]),
            capacity=int(spec["capacity"]),
            seed=int(spec["seed"]),
            enabled=bool(spec["enabled"]),
        )
        # Workers share the parent's epoch so merged span timelines align
        # (perf_counter is the system-wide monotonic clock under fork).
        tracer._epoch = spec["epoch"]
        self.tracer = tracer
        self.shard.attach_tracer(tracer)

    def take_ack(self) -> Tuple[int, List[Tuple[str, object]], int, int]:
        totals = (self.shard.suspensions_total, self.shard.resumptions_total)
        acked = self.feedback_acked
        payload = (
            self.events_since_ack,
            self.fresh_results[:],
            totals[0] - acked[0],
            totals[1] - acked[1],
        )
        self.events_since_ack = 0
        self.fresh_results.clear()
        self.feedback_acked = totals
        return payload

    def take_trace(self):
        """Spans/profiles recorded since the last shipment (None untraced)."""
        tracer = self.tracer
        if tracer is None:
            return None
        spans = tracer.ring.snapshot()
        tracer.ring.clear()
        profiles = {key: dict(prof) for key, prof in tracer.profiles.items()}
        tracer.profiles.clear()
        closed = tracer.mns_pairs_closed - self.mns_closed_shipped
        self.mns_closed_shipped = tracer.mns_pairs_closed
        return (spans, profiles, closed)


def _worker_main(spec: _ShardSpec, conn) -> None:  # pragma: no cover - child
    """Entry point of one shard worker process."""
    shutdown = {"flag": False, "reason": "close"}

    def _on_sigterm(signum, frame) -> None:
        shutdown["flag"] = True
        shutdown["reason"] = "sigterm"

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        state = _WorkerState(spec)
        snapshot = state.shard.snapshot
        while True:
            if shutdown["flag"]:
                break
            if not conn.poll(0):
                # Nothing left to read: what has accumulated (results
                # included) leaves now, not after an idle tick.  Back-to-back
                # commands keep the pipe non-empty and the acks coalesced.
                if state.events_since_ack or state.fresh_results:
                    conn.send(("ack",) + state.take_ack())
                # Wait with a timeout so a SIGTERM between commands is noticed.
                if not conn.poll(0.05):
                    continue
            try:
                msg = conn.recv()
            except EOFError:
                shutdown["reason"] = "eof"
                break
            op = msg[0]
            if op == "evt":
                state.process(msg[1], msg[2], msg[3])
            elif op == "flush":
                conn.send(("ack",) + state.take_ack())
                conn.send(("flushed", msg[1], snapshot(), state.take_trace()))
            elif op == "host":
                state.host(msg[2])
                conn.send(("hosted", msg[1], snapshot()))
            elif op == "retire":
                consumes = state.retire(msg[1])
                conn.send(("ack",) + state.take_ack())
                conn.send(("retired", msg[1], consumes, snapshot()))
            elif op == "tracer":
                state.attach_tracer(msg[1])
            elif op == "stall":
                # Chaos/test hook (`ProcessBackend.inject_stall`): wedge the
                # worker inside a command for msg[1] seconds — the process
                # stays alive but stops polling the pipe, so its acks stop
                # and its watermark freezes, exactly the failure mode the
                # stall watchdog must distinguish from a dead worker.  The
                # pseudo-event the parent counted in flight is acknowledged
                # after the wedge so the accounting reconverges.
                time.sleep(float(msg[1]))
                state.events_since_ack += 1
            elif op == "close":
                break
            else:
                raise ValueError(f"unknown worker command {op!r}")
        # Graceful exit: drain commands already in the pipe, ship the final
        # coalesced ack, and say goodbye so the parent can tell a clean exit
        # from a crash.
        while conn.poll(0):
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "evt":
                state.process(msg[1], msg[2], msg[3])
            elif msg[0] == "flush":
                conn.send(("ack",) + state.take_ack())
                conn.send(("flushed", msg[1], snapshot(), state.take_trace()))
        if state.events_since_ack or state.fresh_results:
            conn.send(("ack",) + state.take_ack())
        conn.send(("bye", shutdown["reason"]))
    except BaseException:
        try:
            conn.send(("err", spec.shard_id, traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# -- the parent side --------------------------------------------------------


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, backend: "ProcessBackend", shard_id: int) -> None:
        self.backend = backend
        self.shard_id = shard_id
        self.cond = threading.Condition()
        self.in_flight = 0
        #: Events the worker has acknowledged over its lifetime, plus the
        #: wall-clock instant of its last message of any kind.  Together
        #: with ``in_flight`` these are the stall watchdog's heartbeat: a
        #: wedged-but-alive worker holds ``in_flight > 0`` while
        #: ``last_progress`` stops advancing.
        self.acked_events = 0
        self.last_progress = time.monotonic()
        #: The shard's feedback counts, summed over every acknowledgement
        #: (kept across restarts, like any counter).
        self.suspensions_total = 0
        self.resumptions_total = 0
        #: The worker's last shipped :meth:`ShardEngine.snapshot` (the
        #: ``hosted`` reply construction waits for sets the first one).
        self.snapshot: Dict[str, object] = {}
        self.alive = False
        self.graceful_exit: Optional[str] = None
        self.error: Optional[ShardWorkerError] = None
        self.replies: Dict[object, Tuple] = {}
        self.proc = None
        self.conn = None
        self.reader: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def spawn(self) -> None:
        """Start the worker process and its reader thread, without waiting:
        the first ``hosted`` reply is the proof that the worker came up."""
        ctx = self.backend.mp_context
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(self.backend.spec_for(self.shard_id), child_conn),
            name=f"shard-{self.shard_id}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.alive = True
        self.graceful_exit = None
        self.error = None
        self.in_flight = 0
        self.acked_events = 0
        self.last_progress = time.monotonic()
        self.reader = threading.Thread(
            target=self._read_loop, name=f"shard-{self.shard_id}-reader", daemon=True
        )
        self.reader.start()

    # -- receiving ----------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                msg = self.conn.recv()
                if not self._on_message(msg):
                    break
        except (EOFError, OSError):
            with self.cond:
                if self.graceful_exit is None and self.error is None:
                    self.error = ShardWorkerError(
                        f"shard {self.shard_id} worker connection lost "
                        "(process crashed or was killed)"
                    )
        finally:
            with self.cond:
                self.alive = False
                self.cond.notify_all()

    def _on_message(self, msg: Tuple) -> bool:
        # Any message at all is proof of life for the stall watchdog: a
        # wedged worker is one that holds in_flight > 0 while this stamp
        # stops advancing.  Plain float store; readers tolerate staleness.
        self.last_progress = time.monotonic()
        op = msg[0]
        if op == "ack":
            _, n_events, results, susp, res = msg
            self.backend.deliver_results(results)
            self.suspensions_total += susp
            self.resumptions_total += res
            with self.cond:
                self.in_flight = max(0, self.in_flight - n_events)
                self.acked_events += n_events
                self.cond.notify_all()
            return True
        if op == "flushed":
            _, token, snapshot, trace_payload = msg
            if trace_payload is not None:
                self.backend.merge_trace(self.shard_id, trace_payload)
            with self.cond:
                self.snapshot = snapshot
                self.replies[token] = msg
                self.cond.notify_all()
            return True
        if op in ("hosted", "retired"):
            with self.cond:
                self.snapshot = msg[-1]
                self.replies[(op, msg[1])] = msg
                self.cond.notify_all()
            return True
        if op == "err":
            with self.cond:
                self.error = ShardWorkerError(
                    f"shard {self.shard_id} worker failed:\n{msg[2]}"
                )
                self.cond.notify_all()
            return False
        if op == "bye":
            with self.cond:
                self.graceful_exit = msg[1]
                self.cond.notify_all()
            return False
        return True

    # -- sending ------------------------------------------------------------

    def _raise_if_failed(self) -> None:
        if self.error is not None:
            raise self.error
        if self.graceful_exit is not None or not self.alive:
            raise ShardWorkerError(
                f"shard {self.shard_id} worker is not running "
                f"(exit: {self.graceful_exit or 'not started'})"
            )

    def send(self, msg: Tuple, events: int = 0) -> None:
        with self.cond:
            self._raise_if_failed()
            self.in_flight += events
        try:
            self.conn.send(msg)
        except (OSError, ValueError, BrokenPipeError) as exc:
            with self.cond:
                if self.error is None and self.graceful_exit is None:
                    self.error = ShardWorkerError(
                        f"shard {self.shard_id} worker pipe closed mid-send"
                    )
                    self.error.__cause__ = exc
                self.in_flight -= events
            raise self.error from exc

    def request(self, msg: Tuple, reply_key) -> Tuple:
        """Send a command and block for its tagged reply."""
        self.send(msg)
        return self.await_reply(reply_key)

    def await_reply(self, reply_key) -> Tuple:
        """Block until the reply tagged ``reply_key`` arrives or the worker fails."""
        with self.cond:
            self.cond.wait_for(
                lambda: reply_key in self.replies
                or self.error is not None
                or (not self.alive and reply_key not in self.replies)
            )
            if reply_key in self.replies:
                return self.replies.pop(reply_key)
            self._raise_if_failed()
            raise ShardWorkerError(
                f"shard {self.shard_id} worker exited before replying"
            )

    def barrier(self) -> None:
        # A barrier also waits out the in-flight count: the coalesced ack
        # always precedes the flushed reply on the pipe, so by then it is 0
        # unless an err raced in.
        token = self.backend.next_token()
        self.request(("flush", token), token)

    # -- teardown -----------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> Optional[ShardWorkerError]:
        """Ask the worker to exit; join it; return (not raise) any failure."""
        if self.proc is None:
            return None
        if self.alive and self.error is None and self.graceful_exit is None:
            try:
                self.conn.send(("close",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)
        if self.reader is not None:
            self.reader.join(timeout)
        with self.cond:
            self.alive = False
        return self.error

    def is_alive(self) -> bool:
        return bool(
            self.alive
            and self.error is None
            and self.proc is not None
            and self.proc.is_alive()
        )


def _tracer_spec(tracer) -> Dict[str, object]:
    """What a worker needs to build its own ring on the parent's epoch."""
    return {
        "sample_rate": tracer.sample_rate,
        "capacity": tracer.ring.capacity,
        "seed": tracer.seed,
        "enabled": tracer.enabled,
        "epoch": tracer._epoch,
    }


def _first_unpicklable(entries: Sequence[RegisteredQuery]) -> Optional[str]:
    for entry in entries:
        try:
            pickle.dumps(entry)
        except Exception:
            return entry.query_id
    return None


class ProcessBackend:
    """``drain_mode="process"``: one worker process per shard.

    Workers are forked at construction (falling back to the platform's
    default start method where fork is unavailable), all of them before any
    is waited for, fed pickled commands over duplex pipes — one ``evt``
    frame per routed event — and read by one parent reader thread each.
    Shipped result tuples are delivered to the mirror runtimes' sinks in
    emission order; telemetry snapshots refresh at every host/retire/flush
    barrier.
    """

    kind = "process"

    def __init__(
        self,
        n_shards: int,
        scheduler: Union[str, Callable[[], object]],
        share_subplans: bool,
        keep_results: bool = True,
    ) -> None:
        methods = _mp.get_all_start_methods()
        self.mp_context = _mp.get_context("fork" if "fork" in methods else None)
        self._scheduler = scheduler
        self._share_subplans = share_subplans
        self._keep_results = keep_results
        self._token_lock = threading.Lock()
        self._next_token = 0
        self._merge_lock = threading.Lock()
        self._runtimes: Dict[str, RemotePlanRuntime] = {}
        #: Hosting order per shard — replayed on restart_worker.
        self._hosted: Dict[int, List[RegisteredQuery]] = {
            shard_id: [] for shard_id in range(n_shards)
        }
        self._restarts: Dict[int, int] = {shard_id: 0 for shard_id in range(n_shards)}
        self.tracer = None
        self.handles = [_WorkerHandle(self, shard_id) for shard_id in range(n_shards)]
        self.proxies = [ProcessShardProxy(handle) for handle in self.handles]
        spawned = []
        try:
            for handle in self.handles:
                handle.spawn()
                spawned.append(handle)
        except BaseException:
            for handle in spawned:
                handle.shutdown()
            raise

    # -- plumbing used by handles -------------------------------------------

    def spec_for(self, shard_id: int) -> _ShardSpec:
        return _ShardSpec(
            shard_id=shard_id,
            scheduler=self._scheduler,
            share_subplans=self._share_subplans,
        )

    def next_token(self) -> Tuple[str, int]:
        with self._token_lock:
            self._next_token += 1
            return ("barrier", self._next_token)

    def deliver_results(self, results: List[Tuple[str, object]]) -> None:
        for query_id, tup in results:
            runtime = self._runtimes.get(query_id)
            if runtime is not None:
                runtime._deliver(tup)

    def merge_trace(self, shard_id: int, payload) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        spans, profiles, mns_closed = payload
        with self._merge_lock:
            tracer.merge_worker(
                f"w{shard_id}", spans, profiles=profiles, mns_pairs_closed=mns_closed
            )

    # -- the backend interface ----------------------------------------------

    def host(self, placements: Placements) -> Dict[str, RemotePlanRuntime]:
        self._ship(placements)
        hosted: Dict[str, RemotePlanRuntime] = {}
        for shard_id, entries in placements.items():
            self._hosted[shard_id].extend(entries)
            for entry in entries:
                hosted[entry.query_id] = RemotePlanRuntime(
                    registered=entry,
                    shard_id=shard_id,
                    collector=ResultCollector(keep_tuples=self._keep_results),
                )
        self._runtimes.update(hosted)
        return hosted

    def _ship(self, placements: Placements) -> None:
        """Send one ``host`` frame per placed shard, then collect every reply.

        All frames go out before any reply is awaited, so the workers unpickle
        and build their plans concurrently; a worker that fails inside its
        frame surfaces here with its traceback.
        """
        awaited = []
        for shard_id, entries in placements.items():
            handle, token = self.handles[shard_id], self.next_token()
            try:
                handle.send(("host", token, entries))
            except ShardWorkerError:
                raise
            except Exception as exc:
                # The frame is pickled whole, before a byte is written.
                raise ShardWorkerError(
                    f"could not ship query {_first_unpicklable(entries)!r} to "
                    f"shard {shard_id}: {exc} (process mode needs picklable "
                    "registrations; see tests/test_pickle_safety.py)"
                ) from exc
            awaited.append((handle, ("hosted", token)))
        for handle, reply_key in awaited:
            handle.await_reply(reply_key)

    def retire(self, shard_id: int, query_id: str):
        reply = self.handles[shard_id].request(
            ("retire", query_id), ("retired", query_id)
        )
        consumes_map: Dict[str, bool] = reply[2]
        runtime = self._runtimes.pop(query_id)
        self._hosted[shard_id] = [
            entry for entry in self._hosted[shard_id] if entry.query_id != query_id
        ]
        return runtime, lambda source: consumes_map.get(source, False)

    def dispatch(self, shard_id, event, trace_ctx=None, watermark=0.0) -> None:
        self.handles[shard_id].send(("evt", event, trace_ctx, watermark), events=1)

    def barrier(self) -> None:
        for handle in self.handles:
            handle.barrier()

    def barrier_shard(self, shard_id: int) -> None:
        self.handles[shard_id].barrier()

    def metrics(self, shard_id: int) -> MetricsReport:
        return self.proxies[shard_id].metrics()

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer
        spec = _tracer_spec(tracer)
        for handle in self.handles:
            handle.send(("tracer", spec))

    def worker_liveness(self) -> Dict[int, int]:
        return {handle.shard_id: int(handle.is_alive()) for handle in self.handles}

    def worker_restarts(self) -> Dict[int, int]:
        return dict(self._restarts)

    def inject_stall(self, shard_id: int, seconds: float) -> None:
        """Chaos/test hook: wedge one worker for ``seconds`` of wall time.

        The worker stays alive but sleeps inside its command loop, so it
        stops polling the pipe and its watermark freezes — the exact
        alive-but-stuck failure the stall watchdog exists to name.  The
        command is accounted as one in-flight event so the parent can see
        work is outstanding; the worker acknowledges it once the wedge
        clears, restoring the accounting.  Never used on the serving path.
        """
        self.handles[shard_id].send(("stall", float(seconds)), events=1)

    def restart_worker(self, shard_id: int) -> None:
        """Respawn one worker and re-host its queries, the way construction
        does: one ``host`` frame carrying the shard's current list.

        Serving availability, not state recovery: the replacement starts
        with empty windows, so results already collected stay intact but
        joins spanning the crash are lost.  Counted by the
        ``serve_shard_worker_restarts_total`` telemetry family.
        """
        handle = self.handles[shard_id]
        handle.shutdown()
        handle.spawn()
        if self.tracer is not None:
            handle.send(("tracer", _tracer_spec(self.tracer)))
        self._ship({shard_id: self._hosted[shard_id]})
        self._restarts[shard_id] += 1

    def close(self) -> None:
        error: Optional[ShardWorkerError] = None
        for handle in self.handles:
            failure = handle.shutdown()
            if error is None and failure is not None:
                error = failure
        if error is not None:
            raise error
