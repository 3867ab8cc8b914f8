"""Process shards: one shard driven by a worker process.

The :class:`~repro.multi.sharded.ShardedEngine` decides *where* each event
goes (router) and *what* every shard hosts (placement + registry); the
``drain_mode`` decides *how* the receiving shard is driven:

* ``drain_mode="sync"`` — each shard is a local
  :class:`~repro.multi.shard.ShardEngine` that the submitting thread drains
  before returning.  Fully deterministic; the mode the equivalence tests
  anchor on.
* ``drain_mode="process"`` — each shard is a :class:`ProcessShard`: one
  worker *process* fed one pickled ``evt`` frame per routed event over a
  pipe; the event is its :class:`~repro.streams.tuples.AtomicTuple`, pickled
  by the tuple's own ``__reduce__``.  Each worker owns a full :class:`~repro.multi.shard.ShardEngine` plus
  its own :class:`~repro.multi.clock.SharedVirtualClock`; the parent ships
  the global ingestion watermark as a plain number with every event, and the
  worker ships per-query results and its shard's suspension/resumption
  counts on acknowledgements, :meth:`~repro.multi.shard.ShardEngine.snapshot`
  on host, retire and flush replies and (when tracing) spans back over the
  same pipe.  This is the mode that scales with cores (see
  ``docs/SCALING.md``).

A :class:`ProcessShard` answers the calls a ``ShardEngine`` answers, so the
sharded engine drives both kinds through one loop.  What keeps per-query
results bit-identical across the two modes: each shard processes **its own
feed in arrival order**, and plans never span shards — a drain mode changes
*when* and *where* work happens, never *what* is computed.

The worker protocol (plain picklable tuples over a
``multiprocessing.Pipe``):

====================================  =======================================
parent -> worker                      worker -> parent
====================================  =======================================
``("host", token, entries)``          ``("hosted", token, snapshot)``
``("retire", query_id)``              ``("retired", query_id, snapshot)``
``("evt", tup, ctx, watermark)``      ``("ack", n, results, susp, res)``
``("flush", token)``                  ``("flushed", token, snap, trace)``
``("tracer", spec)``
``("close",)``                        ``("bye", reason)``
anything failing on the worker        ``("err", shard_id, traceback)``
====================================  =======================================

A ``host`` frame carries a shard's whole ordered list of registrations — all
of them at construction and on :meth:`ProcessShard.restart_worker`, one on
``add_query`` — and ``hosted`` is the only reply a worker sends before its
first event: there is no separate start-up handshake.  The ``retired``
snapshot lists the shard's remaining ``sources``, which is what
:meth:`ProcessShard.consumes` answers from.

Acks are coalesced: a worker under sustained load batches its
acknowledgements (and the result tuples riding on them) until the command
pipe is empty or a flush barrier arrives, so reply traffic amortizes over
bursts, and results leave the worker as soon as it has nothing else to read.
"""

from __future__ import annotations

import itertools
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import multiprocessing as _mp

from repro.engine.results import ResultCollector
from repro.metrics import MetricsReport
from repro.multi.clock import SharedVirtualClock
from repro.multi.registry import RegisteredQuery
from repro.multi.shard import ShardEngine
from repro.scheduler import OperatorScheduler, build_scheduler

__all__ = [
    "ShardWorkerError",
    "ProcessShard",
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
        for runtime in self.shard.host(entries):

            def sink(
                tup, _qid=runtime.query_id, _add=runtime.collector.add, _out=fresh
            ) -> None:
                _add(tup)
                _out.append((_qid, tup))

            runtime.set_result_sink(sink)

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
                state.shard.retire_plan(msg[1])
                conn.send(("ack",) + state.take_ack())
                conn.send(("retired", msg[1], snapshot()))
            elif op == "tracer":
                state.attach_tracer(msg[1])
            elif op == "stall":
                # Chaos/test hook (`ProcessShard.inject_stall`): wedge the
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


#: Serializes the reader threads of every shard that merge worker spans into
#: one parent tracer.
_MERGE_LOCK = threading.Lock()


class _SchedulerSnapshot:
    """A remote scheduler's last shipped stats, shaped like a scheduler."""

    def __init__(self, shard: "ProcessShard") -> None:
        self._shard = shard

    def stats(self) -> Dict[str, float]:
        return dict(self._shard.shipped["scheduler_stats"])


class _CostSnapshot:
    """A remote cost model's last shipped counters, shaped like a CostModel."""

    def __init__(self, shard: "ProcessShard") -> None:
        self._shard = shard

    def count(self, kind: str) -> int:
        return self._shard.shipped["cost_counters"].get(kind, 0)


def _shipped(key: str) -> property:
    return property(
        lambda self: self.shipped[key],
        doc=f"``{key}`` of the worker's last shipped snapshot.",
    )


class ProcessShard:
    """One shard run by a worker process, driven from the parent.

    Answers the calls a :class:`~repro.multi.shard.ShardEngine` answers:
    :meth:`host`, :meth:`retire_plan`, :meth:`consumes`,
    :meth:`process_event`, :meth:`flush`, :meth:`metrics`,
    :meth:`attach_tracer`, :meth:`close`, and the read surface —
    :meth:`snapshot` and its fields, ``cost``/``scheduler``,
    :meth:`health_stats` and the live ``suspensions_total`` /
    ``resumptions_total``.  Reads come from the worker's last shipped
    :meth:`ShardEngine.snapshot` (refreshed at every host, retire and flush
    reply), the counts its acknowledgements carry, and the live in-flight
    count (events dispatched but not yet acknowledged).

    The worker is forked at construction (falling back to the platform's
    default start method where fork is unavailable) without being waited
    for; the first ``hosted`` reply is the proof that it came up.  One
    parent reader thread per worker drains its replies and delivers shipped
    result tuples to the mirror runtimes' sinks in emission order.
    """

    queue_count = _shipped("queue_count")
    events_processed = _shipped("events_processed")
    results_produced = _shipped("results_produced")
    shared_subplans_active = _shipped("shared_subplans_active")
    shared_subplan_hits = _shipped("shared_subplan_hits")
    sources = _shipped("sources")

    def __init__(
        self,
        shard_id: int,
        scheduler: Union[str, Callable[[], object]],
        clock: SharedVirtualClock,
        keep_results: bool = True,
        share_subplans: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.keep_results = keep_results
        self._spec = _ShardSpec(shard_id, scheduler, share_subplans)
        #: The parent's clock: every ``evt`` frame carries its watermark.
        self._clock = clock
        methods = _mp.get_all_start_methods()
        self._mp = _mp.get_context("fork" if "fork" in methods else None)
        self.scheduler = _SchedulerSnapshot(self)
        self.cost = _CostSnapshot(self)
        self.cond = threading.Condition()
        self._tokens = itertools.count(1)
        #: The shard's feedback counts, summed over every acknowledgement
        #: (kept across restarts, like any counter).
        self.suspensions_total = 0
        self.resumptions_total = 0
        #: Times :meth:`restart_worker` replaced the worker.
        self.restarts = 0
        #: The worker's last shipped :meth:`ShardEngine.snapshot` (the first
        #: ``hosted`` reply sets it).
        self.shipped: Dict[str, object] = {}
        #: Hosted registrations in hosting order — replayed on restart.
        self._entries: List[RegisteredQuery] = []
        self._mirrors: Dict[str, RemotePlanRuntime] = {}
        #: Reply keys of ``host`` frames whose ``hosted`` reply
        #: :meth:`snapshot` has not awaited yet.
        self._hosting: List[Tuple[str, object]] = []
        self.tracer = None
        self.replies: Dict[object, Tuple] = {}
        self.proc = None
        self.conn = None
        self.reader: Optional[threading.Thread] = None
        self.spawn()

    # -- lifecycle ----------------------------------------------------------

    def spawn(self) -> None:
        """Start the worker process and its reader thread, without waiting."""
        self.conn, child_conn = self._mp.Pipe(duplex=True)
        self.proc = self._mp.Process(
            target=_worker_main,
            args=(self._spec, child_conn),
            name=f"shard-{self.shard_id}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.alive = True
        self.graceful_exit: Optional[str] = None
        self.error: Optional[ShardWorkerError] = None
        self.in_flight = 0
        #: Events the worker has acknowledged over its lifetime, plus the
        #: wall-clock instant of its last message of any kind.  Together
        #: with ``in_flight`` these are the stall watchdog's heartbeat: a
        #: wedged-but-alive worker holds ``in_flight > 0`` while
        #: ``last_progress`` stops advancing.
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
            mirrors = self._mirrors
            for query_id, tup in results:
                mirror = mirrors.get(query_id)
                if mirror is not None:
                    mirror._deliver(tup)
            self.suspensions_total += susp
            self.resumptions_total += res
            with self.cond:
                self.in_flight = max(0, self.in_flight - n_events)
                self.acked_events += n_events
                self.cond.notify_all()
            return True
        if op == "flushed":
            _, token, snapshot, trace_payload = msg
            tracer = self.tracer
            if trace_payload is not None and tracer is not None:
                spans, profiles, mns_closed = trace_payload
                with _MERGE_LOCK:
                    tracer.merge_worker(
                        f"w{self.shard_id}",
                        spans,
                        profiles=profiles,
                        mns_pairs_closed=mns_closed,
                    )
            with self.cond:
                self.shipped = snapshot
                self.replies[token] = msg
                self.cond.notify_all()
            return True
        if op in ("hosted", "retired"):
            with self.cond:
                self.shipped = msg[-1]
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
        """Write one frame to the worker; ``events`` count as in flight."""
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

    def _token(self) -> Tuple[str, int]:
        return ("barrier", next(self._tokens))

    # -- the shard surface --------------------------------------------------

    def host(self, entries: Sequence[RegisteredQuery]) -> List[RemotePlanRuntime]:
        """Ship ``entries`` in one ``host`` frame and return their mirrors.

        Returns as soon as the frame is written: :meth:`snapshot` awaits the
        worker's ``hosted`` reply, so a caller hosting on many shards sends
        every frame before awaiting any and the workers build concurrently.
        """
        entries = list(entries)
        self._ship(entries)
        self._entries.extend(entries)
        mirrors = [
            RemotePlanRuntime(
                registered=entry,
                shard_id=self.shard_id,
                collector=ResultCollector(keep_tuples=self.keep_results),
            )
            for entry in entries
        ]
        self._mirrors.update((mirror.query_id, mirror) for mirror in mirrors)
        return mirrors

    def _ship(self, entries: List[RegisteredQuery]) -> None:
        token = self._token()
        try:
            self.send(("host", token, entries))
        except ShardWorkerError:
            raise
        except Exception as exc:
            # The frame is pickled whole, before a byte is written.
            raise ShardWorkerError(
                f"could not ship query {_first_unpicklable(entries)!r} to "
                f"shard {self.shard_id}: {exc} (process mode needs picklable "
                "registrations; see tests/test_pickle_safety.py)"
            ) from exc
        self._hosting.append(("hosted", token))

    def retire_plan(self, query_id: str) -> RemotePlanRuntime:
        """Unhost one query on the worker; return its mirror."""
        self.request(("retire", query_id), ("retired", query_id))
        self._entries = [entry for entry in self._entries if entry.query_id != query_id]
        return self._mirrors.pop(query_id)

    def consumes(self, source: str) -> bool:
        """True while a hosted plan routes ``source``, as of the last reply."""
        return source in self.shipped["sources"]

    def process_event(self, event, trace_ctx=None) -> None:
        """Ship one routed event with the parent's ingestion watermark."""
        self.send(("evt", event, trace_ctx, self._clock.watermark), events=1)

    def flush(self) -> None:
        """Barrier: return once the worker has processed every frame sent.

        The coalesced ack always precedes the ``flushed`` reply on the pipe,
        so the in-flight count is 0 by then unless an err raced in.
        """
        token = self._token()
        self.request(("flush", token), token)

    def metrics(self) -> MetricsReport:
        return self.shipped["metrics"]

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer
        self.send(("tracer", _tracer_spec(tracer)))

    @property
    def queue_depth(self) -> int:
        """Worker-reported inter-operator depth plus unacknowledged events."""
        return self.shipped["queue_depth"] + self.in_flight

    def _await_hosted(self) -> None:
        while self._hosting:
            self.await_reply(self._hosting.pop(0))

    def snapshot(self) -> Dict[str, object]:
        """The worker's last shipped :meth:`ShardEngine.snapshot`, once every
        ``host`` frame sent so far has been answered."""
        self._await_hosted()
        return dict(self.shipped)

    def health_stats(self) -> Dict[str, object]:
        """Heartbeat + progress facts for the health monitor's watchdog.

        Combines the worker's last shipped progress (watermark, starvation
        and MNS ages — refreshed at every barrier/flush) with the live
        parent-side heartbeat: ``last_progress`` is the wall instant of the
        worker's last pipe message of any kind, ``in_flight`` the events
        dispatched but not yet acknowledged.  A stalled worker is alive
        with ``in_flight > 0`` and a stale ``last_progress``.
        """
        return {
            "alive": self.is_alive(),
            "in_flight": self.in_flight,
            "acked_events": self.acked_events,
            "last_progress": self.last_progress,
            **self.shipped["progress"],
        }

    # -- worker operations ---------------------------------------------------

    def inject_stall(self, seconds: float) -> None:
        """Chaos/test hook: wedge the worker for ``seconds`` of wall time.

        The worker stays alive but sleeps inside its command loop, so it
        stops polling the pipe and its watermark freezes — the exact
        alive-but-stuck failure the stall watchdog exists to name.  The
        command is accounted as one in-flight event so the parent can see
        work is outstanding; the worker acknowledges it once the wedge
        clears, restoring the accounting.  Never used on the serving path.
        """
        self.send(("stall", float(seconds)), events=1)

    def restart_worker(self) -> None:
        """Respawn the worker and re-host its queries, the way construction
        does: one ``host`` frame carrying the shard's current list.

        Serving availability, not state recovery: the replacement starts
        with empty windows, so results already collected stay intact but
        joins spanning the crash are lost.  Counted by the
        ``serve_shard_worker_restarts_total`` telemetry family.
        """
        self.shutdown()
        self.spawn()
        if self.tracer is not None:
            self.send(("tracer", _tracer_spec(self.tracer)))
        self._ship(self._entries)
        self._await_hosted()
        self.restarts += 1

    # -- teardown -----------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> Optional[ShardWorkerError]:
        """Ask the worker to exit; join it; return (not raise) any failure."""
        self._hosting.clear()
        if self.alive and self.error is None and self.graceful_exit is None:
            try:
                self.conn.send(("close",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)
        self.reader.join(timeout)
        with self.cond:
            self.alive = False
        return self.error

    def close(self) -> None:
        """Shut the worker down; raise the failure it stored, if any."""
        failure = self.shutdown()
        if failure is not None:
            raise failure

    def is_alive(self) -> bool:
        return bool(
            self.alive
            and self.error is None
            and self.proc is not None
            and self.proc.is_alive()
        )

    def __repr__(self) -> str:
        return (
            f"ProcessShard(id={self.shard_id}, alive={self.alive}, "
            f"in_flight={self.in_flight})"
        )
