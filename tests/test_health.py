"""Tests for the health monitor (repro.health).

Four contracts are pinned here:

1. **Watchdog**: a deliberately wedged process worker — alive, pipe open,
   watermark frozen — is diagnosed with a named shard and reason within
   the configured deadline, without ever blocking the parent; the verdict
   self-clears when the worker resumes, and ``restart_worker`` clears it
   for good while keeping the transition count.
2. **SLO state machine**: ok -> warning -> breach transitions follow the
   ratio bands deterministically, breach counters count transitions (not
   scrapes), and recovery re-arms them.
3. **Lag semantics**: lag is ingestion watermark minus last result
   timestamp; a query that never emitted owes the whole stream.
4. **Bundles**: collect -> write -> validate -> doctor round-trips, with
   strict JSON (no NaN/Infinity) and schema violations rejected.
"""

import json
import time

import pytest

from repro.context import ExecutionContext
from repro.engine import ExecutionEngine
from repro.health import (
    BUNDLE_SCHEMA_VERSION,
    HealthMonitor,
    QuerySLO,
    SLO_BREACH,
    SLO_OK,
    SLO_WARNING,
    StallWatchdog,
    collect_bundle,
    diagnose,
    render_report,
    validate_bundle,
    write_bundle,
)
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF
from repro.serve import OverloadPolicy, StreamServer
from repro.streams.time import Window


@pytest.fixture(scope="module")
def workload():
    return generate_multi_query_workload(
        n_queries=4, n_sources=3, rate=0.8, window_seconds=20, dmax=4, duration=60, seed=3
    )


def _registry(workload) -> QueryRegistry:
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF)
    return registry


def _served(workload, **engine_kwargs):
    engine = ShardedEngine(_registry(workload), **engine_kwargs)
    return StreamServer(engine, capacity=256, policy=OverloadPolicy.BLOCK)


# --------------------------------------------------------------- the watchdog


class TestStallWatchdog:
    DEADLINE = 1.0

    def test_wedged_worker_diagnosed_within_deadline(self, workload):
        """A worker that is alive but silent with work in flight must be
        named — shard and reason — within the deadline, and the parent
        must stay responsive throughout."""
        with _served(workload, n_shards=2, drain_mode="process") as server:
            monitor = HealthMonitor(server, stall_deadline=self.DEADLINE)
            events = workload.events()
            server.submit_many(events[:100])
            server.flush()
            server.engine.inject_worker_stall(0, 2.5)
            injected = time.monotonic()
            verdicts = {}
            while time.monotonic() - injected < 2 * self.DEADLINE:
                verdicts = monitor.watchdog.poll()
                if verdicts:
                    break
                time.sleep(0.02)
            detected = time.monotonic() - injected
            assert verdicts, "stall never diagnosed"
            assert detected <= self.DEADLINE, f"diagnosed after {detected:.2f}s"
            diagnosis = verdicts[0]
            assert diagnosis.shard_id == 0
            assert diagnosis.kind == "stalled"
            assert "in flight" in diagnosis.reason
            assert diagnosis.in_flight >= 1
            # The parent is not hung: the healthy shard still takes work.
            server.engine._backend.dispatch(1, events[100], None, watermark=1e9)
            # The wedge clears on its own once the sleep ends; the verdict
            # must follow (poll sees a fresh heartbeat / zero in-flight).
            server.flush()
            deadline = time.monotonic() + 5.0
            while monitor.watchdog.poll() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not monitor.watchdog.poll(), "verdict did not self-clear"
            assert monitor.watchdog.stalls_total.get(0, 0) == 1

    def test_restart_worker_clears_the_verdict(self, workload):
        with _served(workload, n_shards=2, drain_mode="process") as server:
            monitor = HealthMonitor(server, stall_deadline=self.DEADLINE)
            events = workload.events()
            server.submit_many(events[:50])
            server.flush()
            server.engine.inject_worker_stall(0, 3.0)
            deadline = time.monotonic() + 2 * self.DEADLINE
            while not monitor.watchdog.poll() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert monitor.watchdog.is_stalled(0)
            assert monitor.telemetry_stat("health_worker_stalled")["0"] == 1.0
            # Respawn the wedged worker: spawn() resets the heartbeat and
            # the in-flight count, so the very next poll reads healthy.
            server.engine.restart_worker(0)
            assert not monitor.watchdog.poll()
            assert not monitor.watchdog.is_stalled(0)
            assert monitor.telemetry_stat("health_worker_stalled")["0"] == 0.0
            # The transition count survives as the incident record.
            assert monitor.telemetry_stat("health_worker_stalls_total")["0"] == 1.0
            # And the replacement serves: more events flow to completion.
            server.submit_many(events[50:150])
            server.flush()

    def test_background_thread_diagnoses_and_captures_bundle(self, workload, tmp_path):
        with _served(workload, n_shards=2, drain_mode="process") as server:
            monitor = HealthMonitor(
                server, stall_deadline=self.DEADLINE, bundle_dir=str(tmp_path)
            )
            monitor.start()
            server.submit_many(workload.events()[:50])
            server.flush()
            server.engine.inject_worker_stall(1, 2.0)
            deadline = time.monotonic() + 2 * self.DEADLINE
            while monitor.bundles_written == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert monitor.bundles_written == 1
            with open(monitor.last_bundle_path) as handle:
                bundle = json.load(handle)
            validate_bundle(bundle)
            assert "stall-shard1" in bundle["reason"]
            assert bundle["watchdog"]["diagnoses"]["1"]["kind"] == "stalled"
            assert any("shard 1" in finding for finding in diagnose(bundle))
            monitor.close()
            assert monitor.watchdog._thread is None

    def test_local_modes_never_stall(self, workload):
        """Inline shards have no independent heartbeat; the watchdog must
        read them as trivially healthy, and stall injection must refuse."""
        with _served(workload, n_shards=2, drain_mode="sync") as server:
            monitor = HealthMonitor(server, stall_deadline=0.1)
            server.submit_many(workload.events()[:50])
            server.flush()
            assert monitor.watchdog.poll() == {}
            with pytest.raises(RuntimeError, match="process-mode"):
                server.engine.inject_worker_stall(0, 1.0)

    def test_watchdog_rejects_bad_deadline(self, workload):
        with pytest.raises(ValueError):
            StallWatchdog(object(), deadline=0.0)


# ------------------------------------------------------- the SLO state machine


class TestSLOStateMachine:
    def _monitored(self, workload):
        server = _served(workload, n_shards=1)
        monitor = HealthMonitor(
            server, slos={"q0": QuerySLO(max_lag=10.0, warning_ratio=0.7)}
        )
        # Deterministic progress: drive the inputs of the lag computation
        # directly instead of racing a live run.
        server.ingest_watermark = 100.0
        server.query_progress["q0"] = [100.0, 5, time.perf_counter()]
        return server, monitor

    def test_ok_warning_breach_and_recovery(self, workload):
        server, monitor = self._monitored(workload)
        with server:
            assert monitor.evaluate()["q0"] == SLO_OK

            server.query_progress["q0"][0] = 92.0  # lag 8.0 → ratio 0.8 ≥ 0.7
            assert monitor.evaluate()["q0"] == SLO_WARNING
            assert monitor.lag_table()["q0"]["breaches_total"] == 0

            server.query_progress["q0"][0] = 88.0  # lag 12.0 → ratio 1.2
            assert monitor.evaluate()["q0"] == SLO_BREACH
            row = monitor.lag_table()["q0"]
            assert row["breaches_total"] == 1
            assert any("max_lag" in reason for reason in row["slo_reasons"])

            # A sustained breach counts once, however often it is evaluated.
            assert monitor.evaluate()["q0"] == SLO_BREACH
            assert monitor.lag_table()["q0"]["breaches_total"] == 1

            server.query_progress["q0"][0] = 100.0  # recovered
            assert monitor.evaluate()["q0"] == SLO_OK

            server.query_progress["q0"][0] = 80.0  # re-breach re-arms the counter
            assert monitor.evaluate()["q0"] == SLO_BREACH
            assert monitor.lag_table()["q0"]["breaches_total"] == 2

    def test_breach_transition_queues_a_bundle(self, workload, tmp_path):
        server, monitor = self._monitored(workload)
        monitor.bundle_dir = str(tmp_path)
        with server:
            server.query_progress["q0"][0] = 50.0
            result = monitor.check()
            assert result["breaching"] == ["q0"]
            assert result["bundle"] is not None
            with open(result["bundle"]) as handle:
                bundle = json.load(handle)
            validate_bundle(bundle)
            assert "slo-breach-q0" in bundle["reason"]
            assert bundle["queries"]["q0"]["slo_state"] == SLO_BREACH
            # No new transition → no new bundle.
            assert monitor.check()["bundle"] is None
            assert monitor.bundles_written == 1

    def test_slo_requires_a_bound(self):
        with pytest.raises(ValueError):
            QuerySLO()
        with pytest.raises(ValueError):
            QuerySLO(max_lag=1.0, warning_ratio=0.0)

    def test_unreachable_rate_floor_breaches(self, workload):
        server = _served(workload, n_shards=1)
        with server:
            monitor = HealthMonitor(server, slos={"q1": QuerySLO(min_events_per_sec=1e12)})
            server.submit_many(workload.events()[:100])
            server.flush()
            assert monitor.evaluate()["q1"] == SLO_BREACH


# ----------------------------------------------------------- lag and shortlists


class TestLagTable:
    def test_lag_is_watermark_minus_last_result(self, workload):
        server = _served(workload, n_shards=1)
        with server:
            monitor = HealthMonitor(server)
            server.ingest_watermark = 42.0
            server.query_progress["q0"] = [40.5, 3, time.perf_counter()]
            row = monitor.lag_table()["q0"]
            assert row["lag"] == pytest.approx(1.5)
            assert row["results"] == 3
            assert row["staleness_seconds"] >= 0.0

    def test_silent_query_owes_the_whole_stream(self, workload):
        server = _served(workload, n_shards=1)
        with server:
            monitor = HealthMonitor(server)
            server.ingest_watermark = 42.0
            # q0..q3 exist with zero results until something is submitted.
            for row in monitor.lag_table().values():
                assert row["lag"] == pytest.approx(42.0)
                assert row["results"] == 0

    def test_laggy_queries_ranked_worst_first(self, workload):
        server = _served(workload, n_shards=1)
        with server:
            monitor = HealthMonitor(server)
            server.ingest_watermark = 10.0
            now = time.perf_counter()
            server.query_progress.update(
                {
                    "q0": [9.0, 1, now],
                    "q1": [2.0, 1, now],
                    "q2": [7.0, 1, now],
                    "q3": [None, 0, None],  # silent → owes the full watermark
                }
            )
            ranked = monitor.laggy_queries(1.5)
            assert [qid for qid, _ in ranked] == ["q3", "q1", "q2"]


# ------------------------------------------------------------------ the bundle


class TestBundles:
    def test_roundtrip_and_doctor(self, workload, tmp_path):
        server = _served(workload, n_shards=2, drain_mode="sync")
        with server:
            monitor = HealthMonitor(server, slos={"q0": QuerySLO(max_lag=1e-6)})
            server.submit_many(workload.events()[:200])
            monitor.check()
            bundle = collect_bundle(monitor, "on-demand")
            path = str(tmp_path / "bundle.json")
            write_bundle(bundle, path)
            with open(path) as handle:
                loaded = json.load(handle)
            validate_bundle(loaded)
            assert loaded["schema_version"] == BUNDLE_SCHEMA_VERSION
            assert loaded["reason"] == "on-demand"
            assert set(loaded["shards"]) == {"0", "1"}
            assert "serve_ingested_total" in loaded["telemetry"]
            report = render_report(loaded)
            assert "on-demand" in report
            assert "diagnosis" in report
            # Strict JSON: no NaN/Infinity literals anywhere in the file.
            with open(path) as handle:
                text = handle.read()
            assert "Infinity" not in text and "NaN" not in text

    def test_validation_rejects_malformed(self):
        with pytest.raises(ValueError, match="missing keys"):
            validate_bundle({"schema_version": BUNDLE_SCHEMA_VERSION})
        good = {
            "schema_version": BUNDLE_SCHEMA_VERSION + 1,
            "reason": "x",
            "created_unix": 0,
            "watermark": 0,
            "uptime_seconds": 0,
            "queries": {},
            "shards": {},
            "buffer": None,
            "telemetry": None,
            "trace_tail": [],
            "watchdog": None,
        }
        with pytest.raises(ValueError, match="schema_version"):
            validate_bundle(good)

    def test_doctor_names_the_suspended_producer_shard(self):
        """The ISSUE's flagship diagnosis: suspended awaiting MNS resumption
        plus a queue-depth outlier, both named from the bundle alone."""
        bundle = {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "reason": "synthetic",
            "created_unix": 0.0,
            "watermark": 50.0,
            "uptime_seconds": 10.0,
            "queries": {
                "q17": {
                    "lag": 4.2, "results": 9, "slo_state": 2,
                    "slo_reasons": ["lag 4.20s vs max_lag 1s"], "breaches_total": 1,
                },
            },
            "shards": {
                "0": {"alive": True, "queue_depth": 2, "max_starvation_age": 0.0,
                      "mns_open": 0, "mns_oldest_age": 0.0, "stall": None,
                      "ready_queues": 0},
                "3": {"alive": True, "queue_depth": 40, "max_starvation_age": 1.5,
                      "mns_open": 2, "mns_oldest_age": 4.2, "stall": None,
                      "ready_queues": 3},
            },
            "buffer": None,
            "telemetry": None,
            "trace_tail": [],
            "watchdog": None,
        }
        findings = "\n".join(diagnose(bundle))
        assert "q17" in findings and "breach" in findings
        assert "suspended awaiting MNS resumption" in findings
        assert "shard 3" in findings and "median" in findings


# -------------------------------------------------------------- bare engines


class TestBareEngineAttachment:
    @pytest.mark.parametrize("kind", ("object", "execution-engine"))
    def test_rejects_unmonitorable_engine(self, workload, kind):
        """Only a StreamServer or a ShardedEngine is monitored."""
        if kind == "object":
            target = object()
        else:
            entry = next(iter(_registry(workload)))
            context = ExecutionContext(window=Window(entry.query.window.length))
            target = ExecutionEngine(entry.build_plan(), context)
        with pytest.raises(TypeError, match="ShardedEngine"):
            HealthMonitor(target)

    def test_monitor_over_sharded_engine_without_server(self, workload):
        engine = ShardedEngine(_registry(workload), n_shards=2)
        monitor = HealthMonitor(engine)
        engine.run(workload.events()[:200])
        table = monitor.shard_table()
        assert set(table) == {0, 1}
        for row in table.values():
            assert row["alive"] is True
            assert row["events_processed"] > 0
        # Without a serving sink, per-query last-result timestamps are
        # unknown; counts still come from the collectors.
        lag = monitor.lag_table()
        assert sum(row["results"] for row in lag.values()) > 0
        monitor.close()
        engine.close()
