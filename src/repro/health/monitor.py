"""The health monitor: per-query lag verdicts over live engine state.

:class:`HealthMonitor` attaches to a :class:`~repro.serve.server.
StreamServer` (the full surface: per-query progress, latency quantiles,
buffer state) or directly to a :class:`~repro.multi.ShardedEngine`
(shard-level health only — per-query result progress is recorded by the
serving sink).  Every shard number is read from the shard's own
``health_stats()``; the monitor adds no listener anywhere.  It derives:

* :meth:`lag_table` — per-query watermark lag (ingestion watermark minus
  last-emitted result timestamp, in virtual seconds), wall-clock
  staleness, result counts and rates;
* :meth:`shard_table` — per-shard progress: worker liveness and
  heartbeat, ready-queue starvation ages, open MNS suspensions and the
  age of the oldest one, queue depths, scheduler stats;
* :class:`QuerySLO` verdicts — a declarative bound set per query,
  evaluated into an ok -> warning -> breach state machine with breach
  counters;
* ranked shortlists for future policies: :meth:`laggy_queries` (admission
  should shed for these) and :meth:`hot_shards` (migration should move
  work off these).

The monitor is **pull-only**: nothing here runs per event.  The serving
sink updates a three-slot progress cell per result (two stores and a
clock read); every derived number is computed on demand — at telemetry
scrape, on :meth:`check`, or when a caller asks.  That is what keeps an
attached idle monitor within the ~2% overhead bound the ``--suite
health`` benchmark enforces.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from statistics import median_low
from typing import Dict, List, Optional, Tuple

from repro.health.watchdog import StallDiagnosis, StallWatchdog
from repro.multi.sharded import ShardedEngine

__all__ = [
    "QuerySLO",
    "HealthMonitor",
    "SLO_OK",
    "SLO_WARNING",
    "SLO_BREACH",
    "SLO_STATE_NAMES",
]

#: SLO state machine values, exported as ``health_query_slo_state``.
SLO_OK = 0
SLO_WARNING = 1
SLO_BREACH = 2
SLO_STATE_NAMES = {SLO_OK: "ok", SLO_WARNING: "warning", SLO_BREACH: "breach"}


@dataclass(frozen=True)
class QuerySLO:
    """Declarative health bounds for one query; ``None`` leaves a bound unset.

    Each set bound contributes a *consumption ratio* (observed / allowed,
    inverted for the rate floor); the query's state is decided by the worst
    ratio ``r``: ``r < warning_ratio`` is ok, ``warning_ratio <= r < 1`` is
    warning, ``r >= 1`` is breach.
    """

    #: Max acceptable watermark lag, virtual seconds.
    max_lag: Optional[float] = None
    #: Max acceptable p95 ingest-to-emit latency, virtual seconds.  The
    #: quantile comes from the server's (serving-wide) latency histogram.
    max_p95_latency: Optional[float] = None
    #: Min acceptable result rate, results per wall second since start.
    min_events_per_sec: Optional[float] = None
    #: Fraction of a bound at which the state turns ``warning``.
    warning_ratio: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.warning_ratio <= 1.0:
            raise ValueError(
                f"warning_ratio must be in (0, 1], got {self.warning_ratio}"
            )
        if all(
            bound is None
            for bound in (self.max_lag, self.max_p95_latency, self.min_events_per_sec)
        ):
            raise ValueError("a QuerySLO needs at least one bound set")


class HealthMonitor:
    """Derives per-query and per-shard health verdicts from live state.

    Parameters
    ----------
    target:
        A :class:`~repro.serve.server.StreamServer` (attaches itself via
        ``attach_health`` so the ``health_*`` telemetry families go live),
        or a bare :class:`~repro.multi.ShardedEngine`.
    slos:
        Optional ``query_id -> QuerySLO`` bounds; queries without an entry
        always read ``ok``.
    stall_deadline:
        When set, a :class:`StallWatchdog` with this deadline is created
        over the engine (poll it via :meth:`check`, or :meth:`start` its
        background thread).
    bundle_dir:
        When set, a diagnostic bundle is written there on every transition
        into SLO breach or worker stall observed by :meth:`check` (and by
        the background watchdog thread on stalls).
    """

    def __init__(
        self,
        target,
        slos: Optional[Dict[str, QuerySLO]] = None,
        stall_deadline: Optional[float] = None,
        bundle_dir: Optional[str] = None,
    ) -> None:
        if hasattr(target, "attach_health"):
            self.server = target
            self.engine = target.engine
        else:
            self.server = None
            self.engine = target
        if not isinstance(self.engine, ShardedEngine):
            raise TypeError(
                f"cannot monitor {type(self.engine).__name__}; expected a "
                "StreamServer or a ShardedEngine"
            )
        self.slos: Dict[str, QuerySLO] = dict(slos or {})
        self.bundle_dir = bundle_dir
        self._started = time.perf_counter()
        self._states: Dict[str, int] = {}
        self._breaches: Dict[str, int] = {}
        self._reasons: Dict[str, Tuple[str, ...]] = {}
        self._bundle_lock = threading.Lock()
        self._pending_bundle_reasons: List[str] = []
        self.bundles_written = 0
        self.last_bundle_path: Optional[str] = None
        self.watchdog: Optional[StallWatchdog] = None
        if stall_deadline is not None:
            self.watchdog = StallWatchdog(
                self.engine, deadline=stall_deadline, on_stall=self._on_stall
            )
        self._closed = False
        if self.server is not None:
            self.server.attach_health(self)

    # -- wiring ------------------------------------------------------------

    def _on_stall(self, diagnosis: StallDiagnosis) -> None:
        """Watchdog transition hook: queue a bundle capture."""
        with self._bundle_lock:
            self._pending_bundle_reasons.append(
                f"stall-shard{diagnosis.shard_id}-{diagnosis.kind}"
            )
        if self.bundle_dir is not None:
            self._drain_pending_bundles()

    # -- primitive observations --------------------------------------------

    @property
    def watermark(self) -> float:
        """The reference watermark lags are measured against.

        The server's ingestion watermark (newest *accepted* timestamp)
        when fronted — accepted-but-undelivered events already count
        against freshness, which is the point of the serving SLO.  A bare
        engine falls back to its own ingestion watermark.
        """
        server = self.server
        if server is not None and server.ingest_watermark != float("-inf"):
            return server.ingest_watermark
        return self.engine.clock.watermark

    @property
    def uptime_seconds(self) -> float:
        if self.server is not None:
            return self.server.uptime_seconds
        return time.perf_counter() - self._started

    def _progress(self) -> Dict[str, list]:
        """Per-query ``[last_result_ts, results, wall_of_last_result]``."""
        if self.server is not None:
            return self.server.query_progress
        return {
            query_id: [None, runtime.collector.count, None]
            for query_id, runtime in self.engine.runtimes.items()
        }

    def _p95_latency(self) -> Optional[float]:
        if self.server is None:
            return None
        return self.server.latency.percentile(0.95)

    # -- the lag table -----------------------------------------------------

    def lag_table(self) -> Dict[str, Dict[str, object]]:
        """Per-query freshness: lag, staleness, counts, rates, SLO state.

        Lag is the ingestion watermark minus the query's last emitted
        result timestamp (clamped at zero).  A query that has emitted
        nothing owes an answer for the whole observed stream, so it
        reports the full watermark as its lag.  A fronting server records
        exact last-result timestamps; on a bare engine they are unknown
        (``None``) and emitted queries read zero lag.
        """
        watermark = self.watermark
        now = time.perf_counter()
        uptime = max(self.uptime_seconds, 1e-9)
        table: Dict[str, Dict[str, object]] = {}
        for query_id, cell in self._progress().items():
            last_ts, count, wall_last = cell[0], cell[1], cell[2]
            if last_ts is not None:
                lag = max(0.0, watermark - last_ts)
            elif count == 0:
                lag = max(0.0, watermark)
            else:
                lag = 0.0
            table[query_id] = {
                "lag": lag,
                "staleness_seconds": (now - wall_last) if wall_last is not None else None,
                "last_result_ts": last_ts,
                "results": count,
                "rate_per_sec": count / uptime,
                "slo_state": self._states.get(query_id, SLO_OK),
                "slo_reasons": list(self._reasons.get(query_id, ())),
                "breaches_total": self._breaches.get(query_id, 0),
            }
        return table

    def laggy_queries(self, threshold: float = 0.0) -> List[Tuple[str, float]]:
        """Queries whose lag exceeds ``threshold``, worst first.

        The shortlist a freshness-aware admission policy would shed for,
        and a migration policy would prioritize.
        """
        rows = [
            (query_id, row["lag"])
            for query_id, row in self.lag_table().items()
            if row["lag"] > threshold
        ]
        rows.sort(key=lambda pair: pair[1], reverse=True)
        return rows

    # -- the shard table ---------------------------------------------------

    def shard_table(self) -> Dict[int, Dict[str, object]]:
        """Per-shard progress, starvation, MNS ages, and stall verdicts."""
        watermark = self.watermark
        shards = self.engine.shards
        restarts = self.engine.worker_restarts()
        verdicts = self.watchdog.stalled_shards() if self.watchdog else {}
        table: Dict[int, Dict[str, object]] = {}
        for shard_id, stats in self.engine.worker_health().items():
            oldest_ts = stats["mns_oldest_ts"]
            shard = shards[shard_id]
            diagnosis = verdicts.get(shard_id)
            table[shard_id] = {
                "alive": bool(stats["alive"]),
                "in_flight": stats["in_flight"],
                "watermark": float(stats["watermark"]),
                "ready_queues": stats["ready_queues"],
                "max_starvation_age": float(stats["max_starvation_age"]),
                "mns_open": stats["mns_open"],
                "mns_oldest_age": (
                    max(0.0, watermark - oldest_ts) if oldest_ts is not None else 0.0
                ),
                "queue_depth": shard.queue_depth,
                "queue_count": shard.queue_count,
                "events_processed": shard.events_processed,
                "results_produced": shard.results_produced,
                "scheduler_stats": dict(shard.scheduler.stats()),
                "worker_restarts": restarts[shard_id],
                "stall": diagnosis.describe() if diagnosis is not None else None,
            }
        return table

    def hot_shards(self, factor: float = 2.0) -> List[Tuple[int, int]]:
        """Shards whose queue depth exceeds ``factor`` times the median.

        The shortlist a live-migration policy would move work *off*.
        Empty when load is balanced (or everything is idle).
        """
        depths = {
            shard_id: int(row["queue_depth"]) for shard_id, row in self.shard_table().items()
        }
        if not depths:
            return []
        # median_low: a lone outlier in a small fleet must not drag the
        # typical depth up to its own level and hide itself.
        typical = median_low(sorted(depths.values()))
        hot = [
            (shard_id, depth)
            for shard_id, depth in depths.items()
            if depth > 0 and depth > factor * typical
        ]
        hot.sort(key=lambda pair: pair[1], reverse=True)
        return hot

    # -- the SLO state machine ---------------------------------------------

    def evaluate(self) -> Dict[str, int]:
        """Run every query's SLO through the state machine; return states.

        Breach counters increment on the transition *into* breach, so a
        sustained violation counts once until it recovers and re-breaches.
        Transitions queue a diagnostic-bundle capture drained by
        :meth:`check` (written immediately when ``bundle_dir`` is set).
        """
        table = self.lag_table()
        p95 = self._p95_latency()
        uptime = max(self.uptime_seconds, 1e-9)
        for query_id, slo in self.slos.items():
            row = table.get(query_id)
            if row is None:
                continue
            ratios: List[Tuple[float, str]] = []
            if slo.max_lag is not None:
                ratio = row["lag"] / slo.max_lag
                ratios.append(
                    (ratio, f"lag {row['lag']:.2f}s vs max_lag {slo.max_lag:g}s")
                )
            if slo.max_p95_latency is not None and p95 is not None:
                ratio = p95 / slo.max_p95_latency
                ratios.append(
                    (ratio, f"p95 latency {p95:.2f}s vs max {slo.max_p95_latency:g}s")
                )
            if slo.min_events_per_sec is not None:
                rate = row["results"] / uptime
                ratio = slo.min_events_per_sec / max(rate, 1e-9)
                ratios.append(
                    (ratio, f"rate {rate:.2f}/s vs min {slo.min_events_per_sec:g}/s")
                )
            worst = max((ratio for ratio, _ in ratios), default=0.0)
            if worst >= 1.0:
                state = SLO_BREACH
            elif worst >= slo.warning_ratio:
                state = SLO_WARNING
            else:
                state = SLO_OK
            previous = self._states.get(query_id, SLO_OK)
            self._states[query_id] = state
            self._reasons[query_id] = tuple(
                reason for ratio, reason in ratios if ratio >= slo.warning_ratio
            )
            if state == SLO_BREACH and previous != SLO_BREACH:
                self._breaches[query_id] = self._breaches.get(query_id, 0) + 1
                with self._bundle_lock:
                    self._pending_bundle_reasons.append(f"slo-breach-{query_id}")
        return dict(self._states)

    def slo_states(self) -> Dict[str, int]:
        """Last evaluated state per query with an SLO (no re-evaluation)."""
        return {query_id: self._states.get(query_id, SLO_OK) for query_id in self.slos}

    # -- operation ---------------------------------------------------------

    def check(self) -> Dict[str, object]:
        """One full health pass: SLOs, watchdog poll, pending bundles.

        Returns a summary dict; call this from a supervision loop (or use
        :meth:`start` for the background watchdog and scrape-driven SLO
        evaluation instead).
        """
        states = self.evaluate()
        stalls = self.watchdog.poll() if self.watchdog is not None else {}
        bundle_path = self._drain_pending_bundles()
        return {
            "states": states,
            "breaching": sorted(
                query_id for query_id, state in states.items() if state == SLO_BREACH
            ),
            "stalls": {
                shard_id: diagnosis.describe() for shard_id, diagnosis in stalls.items()
            },
            "bundle": bundle_path,
        }

    def start(self) -> None:
        """Start the background watchdog thread (no-op without a deadline)."""
        if self.watchdog is not None:
            self.watchdog.start()

    def _drain_pending_bundles(self) -> Optional[str]:
        """Write at most one bundle covering all queued capture reasons."""
        with self._bundle_lock:
            reasons, self._pending_bundle_reasons = self._pending_bundle_reasons, []
        if not reasons or self.bundle_dir is None:
            return None
        return self.write_bundle("+".join(reasons))

    def write_bundle(self, reason: str, path: Optional[str] = None) -> str:
        """Serialize a diagnostic bundle now; return the written path."""
        from repro.health.bundle import collect_bundle, write_bundle

        bundle = collect_bundle(self, reason)
        if path is None:
            directory = self.bundle_dir or "."
            os.makedirs(directory, exist_ok=True)
            safe = "".join(ch if ch.isalnum() or ch in "-_+" else "-" for ch in reason)
            path = os.path.join(
                directory, f"bundle-{self.bundles_written:03d}-{safe[:80]}.json"
            )
        write_bundle(bundle, path)
        self.bundles_written += 1
        self.last_bundle_path = path
        return path

    # -- telemetry bridge ---------------------------------------------------

    def telemetry_stat(self, family: str):
        """Value (or label mapping) backing one ``health_*`` gauge family."""
        if family == "health_monitor_attached":
            return 1.0
        if family == "health_bundles_written_total":
            return float(self.bundles_written)
        if family in (
            "health_query_slo_state",
            "health_slo_breaches_total",
        ):
            self.evaluate()
            if family == "health_query_slo_state":
                return {qid: float(state) for qid, state in self.slo_states().items()}
            return {
                qid: float(self._breaches.get(qid, 0)) for qid in self.slos
            }
        if family in (
            "health_query_lag",
            "health_query_staleness_seconds",
            "health_query_results_total",
        ):
            key = {
                "health_query_lag": "lag",
                "health_query_staleness_seconds": "staleness_seconds",
                "health_query_results_total": "results",
            }[family]
            return {
                qid: float(row[key] if row[key] is not None else 0.0)
                for qid, row in self.lag_table().items()
            }
        if family in (
            "health_shard_ready_queues",
            "health_shard_starvation_age",
            "health_shard_mns_open",
            "health_shard_mns_oldest_age",
        ):
            key = {
                "health_shard_ready_queues": "ready_queues",
                "health_shard_starvation_age": "max_starvation_age",
                "health_shard_mns_open": "mns_open",
                "health_shard_mns_oldest_age": "mns_oldest_age",
            }[family]
            return {
                str(shard_id): float(row[key])
                for shard_id, row in self.shard_table().items()
            }
        if family == "health_worker_stalled":
            verdicts = self.watchdog.stalled_shards() if self.watchdog else {}
            return {
                str(index): 1.0 if index in verdicts else 0.0
                for index in range(self.engine.n_shards)
            }
        if family == "health_worker_stalls_total":
            totals = dict(self.watchdog.stalls_total) if self.watchdog else {}
            return {
                str(index): float(totals.get(index, 0))
                for index in range(self.engine.n_shards)
            }
        raise KeyError(f"unknown health telemetry family {family!r}")

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the watchdog (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.watchdog is not None:
            self.watchdog.stop()

    def __enter__(self) -> "HealthMonitor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"HealthMonitor(slos={len(self.slos)}, "
            f"watchdog={'on' if self.watchdog else 'off'}, "
            f"bundles={self.bundles_written})"
        )
