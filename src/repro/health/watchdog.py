"""The process-worker stall watchdog.

The process backend already handles *dead* workers: a crashed process
closes its pipe, the reader thread stores a
:class:`~repro.multi.backend.ShardWorkerError`, and the next dispatch
raises it, naming the shard.  What it cannot see is the nastier failure:
a worker that is **alive but not advancing** — wedged in a pathological
operator, spinning in a degenerate join, or blocked on something it
should not be.  From the parent that looks like silence: the process is
alive, the pipe is open, and nothing happens.

:class:`StallWatchdog` closes that gap using two facts the backend
maintains anyway: per-worker ``in_flight`` (events dispatched but not yet
acknowledged) and ``last_progress`` (wall instant of the worker's last
pipe message of any kind).  A worker is *stalled* when it holds
outstanding work while its heartbeat age exceeds half the configured
deadline; the watchdog polls at an eighth of the deadline, so a genuine
stall is diagnosed — with a named shard and reason — strictly within
``deadline`` seconds of onset, and the parent never blocks on the wedged
worker to find out.

The verdict self-clears: acknowledged work, a fresh heartbeat, or a
worker respawn (``spawn`` resets the heartbeat) moves the shard back to
healthy, while ``stalls_total`` keeps the transition count.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = ["StallDiagnosis", "StallWatchdog"]

#: Verdict kinds a poll can assign to a shard.
WORKER_STALLED = "stalled"
WORKER_DEAD = "dead"


@dataclass(frozen=True)
class StallDiagnosis:
    """One shard's named failure verdict at a point in time."""

    shard_id: int
    #: ``"stalled"`` (alive, not advancing) or ``"dead"`` (process gone).
    kind: str
    #: Human sentence naming the shard and the evidence.
    reason: str
    #: ``time.monotonic()`` at detection.
    detected_at: float
    #: Events dispatched to the worker but unacknowledged at detection.
    in_flight: int
    #: Lifetime events the worker had acknowledged at detection.
    acked_events: int

    def describe(self) -> str:
        return f"shard {self.shard_id} {self.kind}: {self.reason}"


class StallWatchdog:
    """Detects alive-but-stuck process workers within a deadline.

    Parameters
    ----------
    engine:
        A :class:`~repro.multi.ShardedEngine` (either drain mode; only
        process workers have an independent heartbeat, so inline shards
        are trivially never stalled).
    deadline:
        Maximum wall seconds from stall onset to a surfaced diagnosis.
        A worker is flagged once its heartbeat is older than
        ``deadline / 2`` while work is outstanding; polling every
        ``deadline / 8`` bounds total detection latency under the
        deadline.  A worker legitimately chewing on one batch for longer
        than ``deadline / 2`` is indistinguishable from a wedge by
        construction — pick the deadline above the slowest expected
        batch.
    on_stall:
        Optional callback invoked with each *new* :class:`StallDiagnosis`
        (transitions only, from the polling thread when :meth:`start` is
        used) — the health monitor hooks bundle capture here.
    """

    def __init__(
        self,
        engine,
        deadline: float = 2.0,
        on_stall: Optional[Callable[[StallDiagnosis], None]] = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.engine = engine
        self.deadline = deadline
        self.on_stall = on_stall
        #: Current verdicts, by shard id; absence means healthy.
        self.diagnoses: Dict[int, StallDiagnosis] = {}
        #: Transitions into the stalled/dead state, by shard id.
        self.stalls_total: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- polling -----------------------------------------------------------

    def poll(self) -> Dict[int, StallDiagnosis]:
        """Sample worker health once; return the current verdict map.

        Safe to call from any thread; never blocks on a worker (all
        inputs are parent-side state the reader threads maintain).
        """
        now = time.monotonic()
        flag_after = self.deadline / 2.0
        fresh: Dict[int, StallDiagnosis] = {}
        for shard_id, stats in self.engine.worker_health().items():
            verdict = self._judge(shard_id, stats, now, flag_after)
            if verdict is not None:
                fresh[shard_id] = verdict
        with self._lock:
            previous = self.diagnoses
            new_verdicts = [
                verdict
                for shard_id, verdict in fresh.items()
                if shard_id not in previous or previous[shard_id].kind != verdict.kind
            ]
            for verdict in new_verdicts:
                self.stalls_total[verdict.shard_id] = (
                    self.stalls_total.get(verdict.shard_id, 0) + 1
                )
            self.diagnoses = fresh
        if self.on_stall is not None:
            for verdict in new_verdicts:
                self.on_stall(verdict)
        return dict(fresh)

    @staticmethod
    def _judge(
        shard_id: int, stats: Dict[str, object], now: float, flag_after: float
    ) -> Optional[StallDiagnosis]:
        in_flight = stats["in_flight"]
        acked = stats["acked_events"]
        if not stats["alive"]:
            return StallDiagnosis(
                shard_id=shard_id,
                kind=WORKER_DEAD,
                reason=(
                    f"worker process exited with {in_flight} event(s) in flight "
                    f"after acknowledging {acked}"
                ),
                detected_at=now,
                in_flight=in_flight,
                acked_events=acked,
            )
        last_progress = stats["last_progress"]
        if last_progress is None or in_flight <= 0:
            # Inline shards (no independent heartbeat) and idle workers
            # cannot stall: nothing is owed.
            return None
        silence = now - last_progress
        if silence <= flag_after:
            return None
        watermark = stats["watermark"]
        return StallDiagnosis(
            shard_id=shard_id,
            kind=WORKER_STALLED,
            reason=(
                f"worker alive but silent for {silence:.2f}s with {in_flight} "
                f"event(s) in flight; watermark frozen at {watermark}"
            ),
            detected_at=now,
            in_flight=in_flight,
            acked_events=acked,
        )

    # -- background operation ----------------------------------------------

    @property
    def poll_interval(self) -> float:
        """Background cadence: an eighth of the deadline, floored at 10ms."""
        return max(self.deadline / 8.0, 0.01)

    def start(self) -> None:
        """Run :meth:`poll` on a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="health-watchdog", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.poll()
            except Exception:
                # The watchdog observes a system that may be mid-teardown;
                # an engine closing under it must not kill the thread loop
                # (stop() ends it deterministically).
                continue

    def stop(self) -> None:
        """Stop the background thread (idempotent; joins it)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    # -- read surface ------------------------------------------------------

    def stalled_shards(self) -> Dict[int, StallDiagnosis]:
        """The current verdicts (empty when every worker is healthy)."""
        with self._lock:
            return dict(self.diagnoses)

    def is_stalled(self, shard_id: int) -> bool:
        with self._lock:
            return shard_id in self.diagnoses

    def __repr__(self) -> str:
        with self._lock:
            n = len(self.diagnoses)
        return f"StallWatchdog(deadline={self.deadline}, stalled={n})"
