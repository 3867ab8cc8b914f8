"""Tests for the serving telemetry surface (repro.serve.telemetry).

UTFW-style coverage: the metric primitives and registry are tested through
the *exposition text* wherever possible (parse → assert existence and
range), so the tests pin the externally visible contract scrapers rely on.
The second half drives a real sharded engine through a
:class:`StreamServer` and asserts every documented metric family exists
with a sane value — and that instrumenting changes no result sequences.
"""

from __future__ import annotations

import pytest

from repro.engine import run_workload
from repro.health import HealthMonitor, QuerySLO
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF
from repro.serve import (
    METRIC_DOC,
    Counter,
    Gauge,
    Histogram,
    OverloadPolicy,
    StreamServer,
    TelemetryError,
    TelemetryRegistry,
    get_metric_value,
    parse_exposition,
)

from helpers import validate_metric_exists, validate_metric_range

# ------------------------------------------------------------------ primitives


class TestCounter:
    def test_increments_and_renders(self):
        counter = Counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        parsed = parse_exposition("\n".join(counter.render()))
        assert parsed["requests_total"][()] == 3.5

    def test_rejects_negative_increment(self):
        counter = Counter("c_total", "x")
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = Counter("events_total", "x", ("source",))
        counter.labels(source="A").inc()
        counter.labels(source="A").inc()
        counter.labels(source="B").inc()
        assert counter.value(source="A") == 2
        assert counter.value(source="B") == 1
        assert counter.value(source="C") == 0
        assert counter.total == 3

    def test_labelless_inc_on_labelled_counter_raises(self):
        counter = Counter("events_total", "x", ("source",))
        with pytest.raises(TelemetryError):
            counter.inc()

    def test_invalid_name_rejected(self):
        with pytest.raises(TelemetryError):
            Counter("bad name!", "x")


class TestGauge:
    def test_set_and_render(self):
        gauge = Gauge("depth", "x")
        gauge.set(7)
        assert get_metric_value("\n".join(gauge.render()), "depth") == 7

    def test_callback_sampled_at_render(self):
        state = {"value": 1}
        gauge = Gauge("live", "x", callback=lambda: state["value"])
        assert gauge.value() == 1
        state["value"] = 42
        assert get_metric_value("\n".join(gauge.render()), "live") == 42

    def test_callback_mapping_becomes_labelled_series(self):
        gauge = Gauge("depth", "x", ("shard",), callback=lambda: {"0": 3, "1": 5})
        text = "\n".join(gauge.render())
        assert get_metric_value(text, "depth", {"shard": "0"}) == 3
        assert get_metric_value(text, "depth", {"shard": "1"}) == 5

    def test_set_on_callback_gauge_raises(self):
        gauge = Gauge("live", "x", callback=lambda: 0)
        with pytest.raises(TelemetryError):
            gauge.set(1)


class TestHistogram:
    def test_buckets_are_cumulative(self):
        hist = Histogram("lat", "x", buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 99.0):
            hist.observe(value)
        parsed = parse_exposition("\n".join(hist.render()))
        assert parsed["lat_bucket"][(("le", "1"),)] == 2
        assert parsed["lat_bucket"][(("le", "5"),)] == 3
        assert parsed["lat_bucket"][(("le", "+Inf"),)] == 4
        assert parsed["lat_count"][()] == 4
        assert parsed["lat_sum"][()] == pytest.approx(103.2)

    def test_nearest_rank_percentiles(self):
        hist = Histogram("lat", "x", buckets=(1000.0,))
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.percentile(0.5) == 50
        assert hist.percentile(0.95) == 95
        assert hist.percentile(0.99) == 99
        assert hist.percentile(1.0) == 100

    def test_percentile_of_empty_is_zero(self):
        assert Histogram("lat", "x").percentile(0.5) == 0.0

    def test_quantile_series_in_exposition(self):
        hist = Histogram("lat", "x", buckets=(10.0,), quantiles=(0.5,))
        hist.observe(4.0)
        text = "\n".join(hist.render())
        assert get_metric_value(text, "lat_quantile", {"quantile": "0.5"}) == 4.0

    def test_window_eviction_keeps_lifetime_counts(self):
        hist = Histogram("lat", "x", buckets=(1000.0,), max_samples=10)
        for value in range(100):
            hist.observe(float(value))
        # Quantiles see only the freshest 10 observations …
        assert hist.percentile(0.5) == 94
        # … but count/sum stay lifetime totals.
        assert hist.count == 100
        assert hist.sum == sum(range(100))

    def test_window_evicts_oldest_not_smallest(self):
        hist = Histogram("lat", "x", buckets=(1000.0,), max_samples=3)
        for value in (9.0, 8.0, 7.0, 6.0, 5.0):
            hist.observe(value)
        # The window holds the last three arrivals (7, 6, 5), not the largest.
        assert [hist.percentile(q) for q in (0.2, 0.5, 1.0)] == [5.0, 6.0, 7.0]
        assert hist.count == 5

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("lat", "x", buckets=(5.0, 1.0))


class TestRegistry:
    def test_idempotent_by_name(self):
        registry = TelemetryRegistry()
        first = registry.counter("a_total", "x")
        second = registry.counter("a_total", "x")
        assert first is second

    def test_kind_conflict_raises(self):
        registry = TelemetryRegistry()
        registry.counter("a_total", "x")
        with pytest.raises(TelemetryError):
            registry.gauge("a_total", "x")

    def test_exposition_has_help_and_type(self):
        registry = TelemetryRegistry()
        registry.counter("a_total", "Helpful.")
        text = registry.exposition()
        assert "# HELP a_total Helpful." in text
        assert "# TYPE a_total counter" in text

    def test_get_unknown_raises(self):
        with pytest.raises(TelemetryError):
            TelemetryRegistry().get("nope")

    def test_contains_and_names(self):
        registry = TelemetryRegistry()
        registry.gauge("g", "x")
        assert "g" in registry
        assert registry.names == ["g"]


class TestHelpers:
    def test_validate_range_rejects_outside(self):
        text = 'x_total 5\n'
        assert validate_metric_range(text, "x_total", 0, 10) == 5
        with pytest.raises(TelemetryError):
            validate_metric_range(text, "x_total", 6, 10)

    def test_get_metric_value_requires_labels_when_ambiguous(self):
        text = 'd{shard="0"} 1\nd{shard="1"} 2\n'
        with pytest.raises(TelemetryError):
            get_metric_value(text, "d")
        assert get_metric_value(text, "d", {"shard": "1"}) == 2

    def test_missing_metric_raises(self):
        with pytest.raises(TelemetryError):
            validate_metric_exists("a 1\n", "b")


class TestLabelEscapingRoundTrip:
    """Prometheus text-format escaping: render -> parse must be lossless.

    The spec escapes ``\\``, ``"`` and newline inside label values; the
    parser must unescape left to right (``\\\\n`` is a backslash then an
    ``n``, not a newline) and must not split on commas or quotes *inside*
    escaped values.
    """

    AWKWARD = (
        "back\\slash",
        'quo"te',
        "new\nline",
        "comma,inside",
        "trailing}",
        "\\n-literal",
        "mix\\\"}\n,end",
    )

    @pytest.mark.parametrize("value", AWKWARD)
    def test_single_value_round_trips(self, value):
        counter = Counter("events_total", "x", ("source",))
        counter.labels(source=value).inc(3)
        parsed = parse_exposition("\n".join(counter.render()) + "\n")
        assert parsed["events_total"] == {(("source", value),): 3.0}

    def test_multiple_awkward_labels_round_trip(self):
        counter = Counter("events_total", "x", ("a", "b"))
        counter.labels(a='x,"y\\', b="z\n}").inc(1)
        counter.labels(a="plain", b="also plain").inc(2)
        parsed = parse_exposition("\n".join(counter.render()) + "\n")
        assert parsed["events_total"][(("a", 'x,"y\\'), ("b", "z\n}"))] == 1.0
        assert parsed["events_total"][(("a", "plain"), ("b", "also plain"))] == 2.0

    def test_get_metric_value_matches_escaped_series(self):
        gauge = Gauge("depth", "x", ("q",), callback=lambda: {'a"b': 4.0})
        text = "\n".join(gauge.render()) + "\n"
        assert get_metric_value(text, "depth", {"q": 'a"b'}) == 4.0

    def test_rendered_line_is_spec_escaped(self):
        counter = Counter("events_total", "x", ("source",))
        counter.labels(source='a\\b"c\nd').inc()
        line = [l for l in counter.render() if not l.startswith("#")][0]
        assert 'source="a\\\\b\\"c\\nd"' in line


# ------------------------------------------------- live exposition & equivalence


def _workload():
    return generate_multi_query_workload(
        n_queries=6, n_sources=4, rate=0.8, window_seconds=20, dmax=4, duration=90, seed=11
    )


def _registry(workload):
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF)
    return registry


@pytest.fixture(scope="module")
def served():
    """One sharded engine run through a block-policy server, plus its text."""
    workload = _workload()
    engine = ShardedEngine(_registry(workload), n_shards=2, scheduler="jit_aware")
    server = StreamServer(engine, capacity=32, policy=OverloadPolicy.BLOCK)
    for event in workload.events():
        server.submit(event)
    server.flush()
    return server, parse_exposition(server.exposition())


class TestDocumentedMetricsExist:
    """Every family in METRIC_DOC must appear in a live exposition, in range."""

    def test_counters_and_gauges(self, served):
        server, parsed = served
        n_events = server.ingested_total
        assert n_events > 0
        # Sample names differ from family names for histograms.
        checks = {
            "serve_ingested_total": (1, n_events),
            "serve_delivered_total": (1, n_events),
            "serve_rejected_total": (0, 0),
            "serve_results_total": (1, float("inf")),
            "serve_backpressure_engagements_total": (1, float("inf")),
            "serve_events_per_second": (0.000001, float("inf")),
            "serve_buffer_occupancy": (0, 32),
            "serve_buffer_capacity": (32, 32),
            "serve_shard_queue_depth": (0, 0),  # flushed → drained
            "serve_ingest_watermark": (0.000001, float("inf")),
            "serve_suspension_rate_per_second": (0, float("inf")),
            "serve_resumption_rate_per_second": (0, float("inf")),
            "serve_scheduler_steps_total": (1, float("inf")),
            "serve_scheduler_boosts_granted_total": (0, float("inf")),
            "serve_scheduler_boosted_servings_total": (0, float("inf")),
            "serve_shared_subplans_active": (0, 0),  # sharing off in fixture
            "serve_shared_subplan_hits_total": (0, 0),
            "serve_shard_steps_per_event": (0.000001, float("inf")),
            "serve_shard_worker_alive": (1, 1),  # inline shards: always live
            "serve_shard_worker_restarts_total": (0, 0),
            "serve_uptime_seconds": (0.0, float("inf")),
        }
        for name, (low, high) in checks.items():
            series = parsed[name]
            assert series, f"metric {name} has no series"
            for labels, value in series.items():
                assert low <= value <= high, f"{name}{labels} = {value} not in [{low}, {high}]"

    def test_shed_total_absent_when_nothing_shed(self, served):
        _, parsed = served
        # block policy sheds nothing, so the family renders no samples; the
        # family is still registered on the server.
        assert parsed.get("serve_shed_total", {}) == {}

    def test_latency_histogram_full_family(self, served):
        server, parsed = served
        count = validate_metric_range(parsed, "serve_result_latency_count", 1)
        assert count == server.report().results
        validate_metric_range(parsed, "serve_result_latency_sum", 0)
        buckets = parsed["serve_result_latency_bucket"]
        inf_key = (("le", "+Inf"),)
        assert buckets[inf_key] == count
        # Cumulative: every bucket ≤ the +Inf bucket.
        assert all(value <= count for value in buckets.values())
        for quantile in ("0.5", "0.95", "0.99"):
            validate_metric_range(
                parsed, "serve_result_latency_quantile", 0, labels={"quantile": quantile}
            )
        # Percentiles are monotone in the quantile.
        p50 = get_metric_value(parsed, "serve_result_latency_quantile", {"quantile": "0.5"})
        p95 = get_metric_value(parsed, "serve_result_latency_quantile", {"quantile": "0.95"})
        p99 = get_metric_value(parsed, "serve_result_latency_quantile", {"quantile": "0.99"})
        assert p50 <= p95 <= p99

    def test_suspension_and_resumption_counters(self, served):
        server, parsed = served
        # The workload is dense enough (dmax=4, live window) that MNS
        # feedback must have flowed; suspensions ≥ resumptions ≥ 0.
        total_suspend = sum(parsed["serve_suspensions_total"].values())
        total_resume = sum(parsed["serve_resumptions_total"].values())
        assert total_suspend >= 1
        assert 0 <= total_resume <= total_suspend

    def test_sharing_metrics_engage_with_shared_engine(self):
        """With ``share_subplans=True`` the sharing gauges go live: subtrees
        are active, hits count the grafted registrations, and the per-shard
        steps-per-event ratio stays below the unshared run's."""
        workload = _workload()
        distinct = len({e.subplan_signature() for e in _registry(workload)})

        def overlapping_registry():
            # Four copies of each query: enough dedup that the shared run's
            # steps-per-event drops despite the added tee-drain steps.
            registry = _registry(workload)
            for copy in range(3):
                for index, query in enumerate(workload.queries()):
                    registry.register(
                        query,
                        query_id=f"dup{copy}_{index}",
                        strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF,
                    )
            return registry

        ratios = {}
        for share in (False, True):
            engine = ShardedEngine(
                overlapping_registry(), n_shards=1, scheduler="jit_aware",
                share_subplans=share,
            )
            server = StreamServer(engine, capacity=32, policy=OverloadPolicy.BLOCK)
            for event in workload.events():
                server.submit(event)
            server.flush()
            parsed = parse_exposition(server.exposition())
            active = sum(parsed["serve_shared_subplans_active"].values())
            hits = sum(parsed["serve_shared_subplan_hits_total"].values())
            if share:
                # Four copies per query collapse onto the distinct subtrees.
                assert active == distinct
                assert hits == 24 - distinct
            else:
                assert active == 0 and hits == 0
            ratios[share] = sum(parsed["serve_shard_steps_per_event"].values())
            server.close()
        assert 0 < ratios[True] < ratios[False]

    def test_every_documented_family_registered(self, served):
        server, _ = served
        for name in METRIC_DOC:
            assert name in server.telemetry, f"{name} not registered"

    def test_doc_covers_every_registered_family(self, served):
        server, _ = served
        undocumented = set(server.telemetry.names) - set(METRIC_DOC)
        assert not undocumented, f"registered but undocumented: {sorted(undocumented)}"


class TestHealthFamilies:
    """Exposition contract of the ``health_*`` bridge (repro.health)."""

    QUERY_FAMILIES = (
        "health_query_lag",
        "health_query_staleness_seconds",
        "health_query_results_total",
        "health_query_slo_state",
        "health_slo_breaches_total",
    )
    SHARD_FAMILIES = (
        "health_shard_ready_queues",
        "health_shard_starvation_age",
        "health_shard_mns_open",
        "health_shard_mns_oldest_age",
        "health_worker_stalled",
        "health_worker_stalls_total",
    )

    @pytest.fixture(scope="class")
    def monitored(self):
        """A served run with a HealthMonitor attached before ingestion."""
        workload = _workload()
        engine = ShardedEngine(_registry(workload), n_shards=2, scheduler="jit_aware")
        server = StreamServer(engine, capacity=32, policy=OverloadPolicy.BLOCK)
        monitor = HealthMonitor(
            server, slos={"q0": QuerySLO(max_lag=1e9), "q1": QuerySLO(min_events_per_sec=1e9)}
        )
        for event in workload.events():
            server.submit(event)
        server.flush()
        monitor.check()
        return server, monitor, parse_exposition(server.exposition())

    def test_families_empty_without_monitor(self, served):
        """Registered always; without a monitor the labeled families render
        header-only and the scalars read zero."""
        server, parsed = served
        assert parsed["health_monitor_attached"][()] == 0.0
        assert parsed["health_bundles_written_total"][()] == 0.0
        for family in self.QUERY_FAMILIES + self.SHARD_FAMILIES:
            assert family in server.telemetry
            assert parsed.get(family, {}) == {}

    def test_every_family_exists_in_range(self, monitored):
        server, _monitor, parsed = monitored
        n_queries = len(server.engine.runtimes)
        assert parsed["health_monitor_attached"][()] == 1.0
        assert parsed["health_bundles_written_total"][()] == 0.0
        ranges = {
            "health_query_lag": (0.0, float("inf"), n_queries),
            "health_query_staleness_seconds": (0.0, float("inf"), n_queries),
            "health_query_results_total": (1.0, float("inf"), n_queries),
            "health_query_slo_state": (0.0, 2.0, 2),  # only SLO'd queries
            "health_slo_breaches_total": (0.0, float("inf"), 2),
            "health_shard_ready_queues": (0.0, 0.0, 2),  # flushed → quiescent
            "health_shard_starvation_age": (0.0, 0.0, 2),
            "health_shard_mns_open": (0.0, float("inf"), 2),
            "health_shard_mns_oldest_age": (0.0, float("inf"), 2),
            "health_worker_stalled": (0.0, 0.0, 2),
            "health_worker_stalls_total": (0.0, 0.0, 2),
        }
        for family, (low, high, n_series) in ranges.items():
            series = parsed[family]
            assert len(series) == n_series, f"{family}: {series}"
            for labels, value in series.items():
                assert low <= value <= high, f"{family}{labels} = {value}"

    def test_slo_states_render_the_machine(self, monitored):
        _server, _monitor, parsed = monitored
        # q0's bound is unreachable → ok; q1's rate floor is unmeetable → breach.
        states = {labels[0][1]: value for labels, value in parsed["health_query_slo_state"].items()}
        assert states == {"q0": 0.0, "q1": 2.0}
        breaches = {labels[0][1]: value for labels, value in parsed["health_slo_breaches_total"].items()}
        assert breaches["q1"] >= 1.0

    def test_local_mns_open_matches_feedback_counters(self, monitored):
        """The shard's edge-tracked open suspensions must reconcile with
        its suspension/resumption totals, per shard."""
        _server, _monitor, parsed = monitored
        for shard in ("0", "1"):
            suspended = parsed["serve_suspensions_total"].get((("shard", shard),), 0.0)
            resumed = parsed["serve_resumptions_total"].get((("shard", shard),), 0.0)
            open_now = parsed["health_shard_mns_open"][(("shard", shard),)]
            assert open_now == suspended - resumed

    def test_query_label_escaping_round_trips(self):
        """Awkward query ids must survive the render → parse round trip."""
        awkward = 'q"0\\weird\nid'
        workload = _workload()
        registry = QueryRegistry()
        registry.register(workload.queries()[0], query_id=awkward)
        engine = ShardedEngine(registry, n_shards=1)
        server = StreamServer(engine, capacity=32, policy=OverloadPolicy.BLOCK)
        HealthMonitor(server)
        for event in workload.events()[:200]:
            server.submit(event)
        server.flush()
        parsed = parse_exposition(server.exposition())
        key = (("query", awkward),)
        assert key in parsed["health_query_lag"]
        assert parsed["health_query_results_total"][key] >= 0.0
        server.close()


class TestInstrumentationEquivalence:
    """Telemetry + block backpressure must not change any result sequence."""

    @pytest.mark.parametrize(
        "n_shards,drain_mode",
        ((1, "sync"), (2, "sync"), (3, "sync"), (2, "process")),
    )
    def test_served_matches_standalone(self, n_shards, drain_mode):
        workload = _workload()
        events = workload.events()
        registry = _registry(workload)
        standalone = {}
        for entry in registry:
            subscribed = [e for e in events if e.source in entry.sources]
            report = run_workload(
                entry.build_plan(), subscribed, entry.query.window.length
            )
            standalone[entry.query_id] = report.results.multiset()

        engine = ShardedEngine(
            _registry(workload), n_shards=n_shards, drain_mode=drain_mode
        )
        server = StreamServer(engine, capacity=16, policy=OverloadPolicy.BLOCK)
        for event in events:
            server.submit(event)
        server.flush()
        for query_id, expected in standalone.items():
            assert server.results_for(query_id).multiset() == expected
        report = server.report()
        assert report.shed == 0
        assert report.delivered == report.ingested == len(events)
        if drain_mode != "sync":
            engine.close()

    def test_process_mode_feedback_and_worker_gauges(self):
        """Worker-shipped feedback deltas must match sync-mode counting, and
        the worker gauges must reflect process-backend liveness."""
        workload = _workload()
        events = workload.events()

        def serve(drain_mode):
            engine = ShardedEngine(
                _registry(workload), n_shards=2, scheduler="jit_aware",
                drain_mode=drain_mode,
            )
            server = StreamServer(engine, capacity=32, policy=OverloadPolicy.BLOCK)
            for event in events:
                server.submit(event)
            server.flush()
            parsed = parse_exposition(server.exposition())
            server.close()
            return parsed

        sync_parsed = serve("sync")
        proc_parsed = serve("process")
        for family in ("serve_suspensions_total", "serve_resumptions_total"):
            assert proc_parsed[family] == sync_parsed[family]
        assert proc_parsed["serve_shard_worker_alive"] == {
            (("shard", "0"),): 1.0,
            (("shard", "1"),): 1.0,
        }
        assert proc_parsed["serve_shard_worker_restarts_total"] == {
            (("shard", "0"),): 0.0,
            (("shard", "1"),): 0.0,
        }
