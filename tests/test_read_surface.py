"""One read surface for the serving and health layers, pinned across modes.

``StreamServer`` and ``HealthMonitor`` read every shard through the same
names — :meth:`~repro.multi.shard.ShardEngine.snapshot`, ``health_stats()``
and the shard-owned ``suspensions_total`` / ``resumptions_total`` — whether
the shard is a local :class:`~repro.multi.shard.ShardEngine` (sync) or a
process worker's :class:`~repro.multi.backend.ProcessShardProxy`.  Pinned
here:

* queries hosted through the server after it was built are served like the
  ones it started with, and a retired one leaves the lag table;
* after the same served run with a mid-stream ``add_query``, sync shards
  and process proxies report equal snapshots, MNS facts and feedback totals;
* an idle monitor adds no feedback listener: every hosted context feeds
  exactly the shard's scheduler and the shard's counter;
* ``docs/SERVING.md``'s metric tables state every family with the name,
  kind and labels ``METRIC_DOC`` gives it.
"""

import re
from pathlib import Path

import pytest

from repro.health import HealthMonitor
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF
from repro.serve import METRIC_DOC, StreamServer, get_metric_value, parse_exposition

SERVING_MD = Path(__file__).resolve().parents[1] / "docs" / "SERVING.md"


@pytest.fixture(scope="module")
def workload():
    return generate_multi_query_workload(
        n_queries=6, n_sources=4, rate=0.8, window_seconds=20, dmax=4, duration=90, seed=11
    )


def _strategy(index: int) -> str:
    return STRATEGY_JIT if index % 2 else STRATEGY_REF


class TestLateQueries:
    """One query at construction, five added through the server."""

    #: Results the six queries' collectors hold after the whole stream.
    RESULTS = 2993

    def _serve(self, workload, drain_mode):
        queries = workload.queries()
        registry = QueryRegistry()
        registry.register(queries[0], strategy=_strategy(0))
        engine = ShardedEngine(
            registry, n_shards=2, scheduler="jit_aware", drain_mode=drain_mode
        )
        server = StreamServer(engine, capacity=32)
        monitor = HealthMonitor(server)
        for index, query in enumerate(queries[1:], 1):
            server.add_query(registry.register(query, strategy=_strategy(index)))
        for event in workload.events():
            server.submit(event)
        server.flush()
        return server, monitor

    def test_added_queries_are_counted_and_retired_ones_leave(self, workload):
        feedback = {}
        for drain_mode in ("sync", "process"):
            server, monitor = self._serve(workload, drain_mode)
            with server:
                hosted = server.engine.runtimes
                collected = sum(runtime.collector.count for runtime in hosted.values())
                assert collected == self.RESULTS
                parsed = parse_exposition(server.exposition())
                assert get_metric_value(parsed, "serve_results_total") == collected
                assert set(monitor.lag_table()) == set(hosted)
                feedback[drain_mode] = (
                    parsed["serve_suspensions_total"],
                    parsed["serve_resumptions_total"],
                )
                server.retire_query("q3")
                assert "q3" not in monitor.lag_table()
                parsed = parse_exposition(server.exposition())
                lagging = {labels[0][1] for labels in parsed["health_query_lag"]}
                assert lagging == set(hosted) - {"q3"}
        assert feedback["process"] == feedback["sync"]
        suspensions, resumptions = feedback["sync"]
        assert sum(suspensions.values()) > 0 and sum(resumptions.values()) > 0


class TestSyncProcessReadSurface:
    """Every shard reads the same in both drain modes after the same run."""

    def _serve(self, workload, drain_mode):
        queries = workload.queries()
        registry = QueryRegistry()
        for query in queries[:5]:
            registry.register(query, strategy=STRATEGY_JIT)
        engine = ShardedEngine(
            registry, n_shards=2, scheduler="jit_aware", drain_mode=drain_mode
        )
        server = StreamServer(engine, capacity=32)
        events = workload.events()
        half = len(events) // 2
        server.submit_many(events[:half])
        server.add_query(registry.register(queries[5], strategy=STRATEGY_JIT))
        server.submit_many(events[half:])
        server.flush()
        with server:
            return [
                (
                    shard.snapshot(),
                    shard.health_stats(),
                    shard.suspensions_total,
                    shard.resumptions_total,
                )
                for shard in engine.shards
            ]

    def test_snapshots_mns_and_feedback_totals_agree(self, workload):
        sync = self._serve(workload, "sync")
        proc = self._serve(workload, "process")
        for (snap, health, susp, res), (p_snap, p_health, p_susp, p_res) in zip(
            sync, proc
        ):
            assert p_snap.keys() == snap.keys()
            for key, value in snap.items():
                assert p_snap[key] == value, key
            for key in ("mns_open", "mns_oldest_ts"):
                assert p_health[key] == health[key], key
            assert (p_susp, p_res) == (susp, res)
        # Not vacuous: feedback flowed and one suspension is still open.
        assert sum(susp for _snap, _health, susp, _res in sync) > 0
        assert any(health["mns_open"] for _snap, health, _susp, _res in sync)


def test_idle_monitor_adds_no_feedback_listener(workload):
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, strategy=_strategy(index))
    engine = ShardedEngine(registry, n_shards=2, scheduler="jit_aware")
    server = StreamServer(engine, capacity=32)
    HealthMonitor(server, stall_deadline=1.0)
    with server:
        for runtime in engine.runtimes.values():
            shard = engine.shards[runtime.shard_id]
            assert runtime.context.feedback_listeners == [
                shard.scheduler.notify_feedback,
                shard._note_feedback,
            ]


def _documented_families():
    """``name -> (kind, labels)`` from every metric table of SERVING.md."""
    row = re.compile(r"^\| `([a-z_]+)` \| (counter|gauge|histogram) \| ([^|]+) \|")
    families = {}
    for line in SERVING_MD.read_text(encoding="utf-8").splitlines():
        match = row.match(line)
        if match is None:
            continue
        name, kind, labels = match.groups()
        families[name] = (kind, tuple(re.findall(r"`([a-z_]+)`", labels)))
    return families


def test_serving_doc_tables_match_metric_doc():
    documented = _documented_families()
    catalog = {name: (kind, labels) for name, (kind, labels, _) in METRIC_DOC.items()}
    assert documented == catalog
