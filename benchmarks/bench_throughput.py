"""Execution-core throughput benchmarks: events/sec, wall-clock.

Unlike ``bench_figures.py``, which reports the paper's *modelled* cost
units, this benchmark measures real wall-clock throughput of the execution
hot path:

* **Probe algorithm** — nested-loop vs. hash-indexed probes
  (``use_hash_index``), for both the REF join and the JIT join, whose
  detection-free probes, MNS-detecting probes and suspension extraction
  are all served from the state's indexes.
* **Flight recorder** — the :class:`~repro.trace.Tracer`'s overhead on the
  shared multi-query path: no tracer vs. an attached-but-disabled tracer
  (must cost ≤2% events/sec) vs. head-based sampling at 0/10/100 percent.
  ``--suite trace`` writes its numbers to ``BENCH_trace.json``; the
  separate ``--trace`` / ``--trace-out`` flags export a schema-validated,
  Perfetto-loadable Chrome trace of the same workload.
* **Serving layer** — the :class:`~repro.serve.StreamServer` front-end:
  instrumentation + bounded-buffer overhead of the ``block`` policy vs. the
  raw engine (must stay result-bit-identical), shedding throughput and exact
  loss accounting of ``drop_oldest`` / ``fair_shed`` under a deliberately
  undersized buffer, and a ``--boost-steps`` sweep of the jit_aware
  scheduler's boost duration (§III-B) measured *through* the serving layer
  with its boost counters surfaced from telemetry.  ``--suite serve`` writes
  its numbers to ``BENCH_serve.json``.
* **Health monitor** — an idle :class:`~repro.health.HealthMonitor`'s
  overhead on the serving path (must cost ≤2% events/sec), timed as
  interleaved-batch cost floors.  ``--suite health`` writes its numbers to
  ``BENCH_health.json``.

The 128-query clique population (4 sources, inline vs process workers,
sub-plan sharing on vs off) is measured by ``benchmarks/e2e`` alone, as its
``clique128``, ``shared128`` and ``process2`` workloads.

Every comparison asserts that all variants produce the identical result
multiset (or identical per-query counts), so a reported speedup is never the
product of a wrong answer.

Run directly::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--events 10000]
    PYTHONPATH=src python benchmarks/bench_throughput.py --suite serve [--json PATH]

or through pytest (wall-clock numbers are printed; the ≥3x indexed-probe
speedup on the 10k-event workload is asserted, and the serving and health
suites are run small for their correctness checks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py -q -s
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine import ExecutionMode, run_workload
from repro.engine.results import result_multiset
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import (
    PLAN_LEFT_DEEP,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.scheduler import build_scheduler
from repro.streams.generators import generate_clique_workload

#: Workload sized so the 10k-event acceptance measurement keeps a few hundred
#: tuples per window — the regime where probe algorithm choice dominates.
DEFAULT_EVENTS = 10_000

#: Standing-query population of the serving suite (small: the quantity
#: under test is the serving front-end).
DEFAULT_SERVE_QUERIES = 32

#: Arrivals driven through each serving-suite variant.
DEFAULT_SERVE_EVENTS = 4_000

#: jit_aware boost durations swept by ``--boost-steps`` (must be positive;
#: the sweep always adds a plain-FIFO baseline row for the no-boost anchor).
DEFAULT_BOOST_STEPS = (1, 2, 4, 8, 16)

#: Where ``--suite serve`` records its results.
DEFAULT_SERVE_JSON = Path(__file__).resolve().parent / "BENCH_serve.json"

#: Standing-query population of the tracer-overhead suite.
DEFAULT_TRACE_QUERIES = 64

#: Arrivals driven through each tracer-overhead variant.
DEFAULT_TRACE_EVENTS = 4_000

#: Where ``--suite trace`` records its results.
DEFAULT_TRACE_JSON = Path(__file__).resolve().parent / "BENCH_trace.json"

#: Where ``--trace`` writes its Chrome trace when ``--trace-out`` is omitted.
DEFAULT_TRACE_OUT = Path(__file__).resolve().parent / "trace_multi.json"

#: Standing-query population of the health-monitor overhead suite.
DEFAULT_HEALTH_QUERIES = 32

#: Arrivals driven through each health-suite variant.  The suite times
#: interleaved batches, so a modest stream with several repeats beats a
#: long one-shot run on a noisy machine.
DEFAULT_HEALTH_EVENTS = 2_000

#: Where ``--suite health`` records its results.
DEFAULT_HEALTH_JSON = Path(__file__).resolve().parent / "BENCH_health.json"


def _equi_workload(n_events: int, n_sources: int = 2, seed: int = 7):
    """A clique workload tuned to ``n_events`` total arrivals."""
    rate = 1.0
    duration = max(1.0, n_events / (rate * n_sources))
    window = max(20.0, duration * 0.04)
    return generate_clique_workload(
        n_sources=n_sources,
        rate=rate,
        window_seconds=window,
        dmax=50,
        duration=duration,
        seed=seed,
    )


def _timed_run(plan, events, window_length, **kwargs) -> Tuple[float, object]:
    start = time.perf_counter()
    report = run_workload(plan, events, window_length, **kwargs)
    return time.perf_counter() - start, report


def bench_probe_paths(n_events: int = DEFAULT_EVENTS) -> Dict[str, Dict[str, float]]:
    """Nested-loop vs. hash-indexed probes, per strategy and execution mode."""
    workload = _equi_workload(n_events)
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    out: Dict[str, Dict[str, float]] = {}
    baseline_results = None
    for strategy in (STRATEGY_REF, STRATEGY_JIT):
        for mode in (ExecutionMode.SYNCHRONOUS, ExecutionMode.QUEUED):
            row: Dict[str, float] = {}
            for label, use_index in (("nested_loop", False), ("hash_index", True)):
                plan = build_xjoin_plan(
                    query,
                    shape=PLAN_LEFT_DEEP,
                    strategy=strategy,
                    use_hash_index=use_index,
                )
                elapsed, report = _timed_run(
                    plan, events, workload.window.length, mode=mode
                )
                results = result_multiset(report.results.results)
                if baseline_results is None:
                    baseline_results = results
                assert results == baseline_results, (
                    f"{strategy}/{mode}/{label} changed the result set"
                )
                row[label] = len(events) / elapsed
            row["speedup"] = row["hash_index"] / row["nested_loop"]
            out[f"{strategy}/{mode}"] = row
    return out


def _multi_registry(workload) -> QueryRegistry:
    """Register the workload's standing queries as hash-indexed JIT joins."""
    registry = QueryRegistry()
    for query in workload.queries():
        registry.register(query, strategy=STRATEGY_JIT, use_hash_index=True)
    return registry


def bench_serve(
    n_queries: int = DEFAULT_SERVE_QUERIES,
    n_events: int = DEFAULT_SERVE_EVENTS,
    boost_steps: Tuple[int, ...] = DEFAULT_BOOST_STEPS,
    capacity: int = 256,
    n_shards: int = 2,
    repeats: int = 2,
) -> Dict[str, object]:
    """The serving-layer benchmark: policy overhead, shedding, boost sweep.

    Part one measures the :class:`~repro.serve.StreamServer` front-end
    against the raw engine on the same workload: the ``block`` policy with
    full telemetry must reproduce the raw per-query result counts exactly
    (its cost is the serving overhead), while ``drop_oldest`` and
    ``fair_shed`` run with a deliberately undersized buffer (capacity//8,
    no interleaved draining) and must account every shed event.

    Part two sweeps the jit_aware scheduler's ``boost_steps`` (§III-B boost
    duration) through a block-policy server — plus a plain-FIFO baseline —
    reporting throughput and the scheduler's boost counters
    (``boosts_granted`` / ``boosted_servings``) surfaced via the serving
    telemetry.  Scheduling order must never change results, so every sweep
    point must reproduce the baseline per-query counts.
    """
    from repro.serve import OverloadPolicy, StreamServer, get_metric_value

    n_sources = 4
    workload = generate_multi_query_workload(
        n_queries=n_queries,
        n_sources=n_sources,
        rate=1.0,
        window_seconds=25.0,
        dmax=200,
        duration=max(1.0, n_events / n_sources),
        seed=17,
    )
    events = workload.events()
    registry = _multi_registry(workload)

    def timed_raw() -> Tuple[float, Dict[str, int]]:
        with ShardedEngine(registry, n_shards=n_shards, keep_results=False) as engine:
            start = time.perf_counter()
            report = engine.run(events)
            return time.perf_counter() - start, report.result_counts()

    def timed_served(policy: str, cap: int, scheduler="fifo"):
        engine = ShardedEngine(
            registry, n_shards=n_shards, scheduler=scheduler, keep_results=False
        )
        server = StreamServer(engine, capacity=cap, policy=policy)
        start = time.perf_counter()
        for event in events:
            server.submit(event)
        server.flush()
        elapsed = time.perf_counter() - start
        counts = {
            entry.query_id: server.results_for(entry.query_id).count
            for entry in registry
        }
        return elapsed, counts, server

    baseline_counts: Optional[Dict[str, int]] = None
    raw_best = float("inf")
    for _ in range(max(1, repeats)):
        elapsed, counts = timed_raw()
        if baseline_counts is None:
            baseline_counts = counts
        assert counts == baseline_counts
        raw_best = min(raw_best, elapsed)

    policies: Dict[str, Dict[str, object]] = {}
    for policy in OverloadPolicy.ALL:
        cap = capacity if policy == OverloadPolicy.BLOCK else max(8, capacity // 8)
        best = float("inf")
        last_server = None
        for _ in range(max(1, repeats)):
            elapsed, counts, server = timed_served(policy, cap)
            if policy == OverloadPolicy.BLOCK:
                assert counts == baseline_counts, (
                    f"served/{policy} changed the per-query results"
                )
            report = server.report()
            assert report.delivered + report.shed == report.ingested == len(events), (
                f"served/{policy} lost events without accounting: {report}"
            )
            best = min(best, elapsed)
            last_server = server
        report = last_server.report()
        policies[policy] = {
            "capacity": cap,
            "events_per_sec": len(events) / best,
            "wall_seconds": best,
            "delivered": report.delivered,
            "shed": report.shed,
            "shed_total_matches": sum(report.shed_by_source.values()) == report.shed,
            "latency_p50": report.latency_quantiles.get(0.5, 0.0),
            "latency_p99": report.latency_quantiles.get(0.99, 0.0),
        }
    serving_overhead = raw_best / policies[OverloadPolicy.BLOCK]["wall_seconds"]

    sweep: List[Dict[str, object]] = []
    for label, scheduler in [("fifo", "fifo")] + [
        (f"jit_aware/{steps}", (lambda s=steps: build_scheduler("jit_aware", boost_steps=s)))
        for steps in boost_steps
    ]:
        best = float("inf")
        last_server = None
        for _ in range(max(1, repeats)):
            elapsed, counts, server = timed_served(
                OverloadPolicy.BLOCK, capacity, scheduler=scheduler
            )
            assert counts == baseline_counts, (
                f"boost sweep {label} changed the per-query results"
            )
            best = min(best, elapsed)
            last_server = server
        parsed_text = last_server.exposition()
        sweep.append(
            {
                "scheduler": label,
                "boost_steps": None if label == "fifo" else int(label.split("/")[1]),
                "events_per_sec": len(events) / best,
                "wall_seconds": best,
                "boosts_granted": sum(
                    get_metric_value(
                        parsed_text, "serve_scheduler_boosts_granted_total", {"shard": str(i)}
                    )
                    for i in range(n_shards)
                ),
                "boosted_servings": sum(
                    get_metric_value(
                        parsed_text, "serve_scheduler_boosted_servings_total", {"shard": str(i)}
                    )
                    for i in range(n_shards)
                ),
            }
        )

    assert baseline_counts is not None
    return {
        "config": {
            "n_queries": n_queries,
            "n_sources": n_sources,
            "n_events": len(events),
            "window_seconds": 25.0,
            "dmax": 200,
            "seed": 17,
            "strategy": STRATEGY_JIT,
            "capacity": capacity,
            "n_shards": n_shards,
            "repeats": repeats,
            "boost_steps": list(boost_steps),
            "workload": workload.describe(),
        },
        "total_results": sum(baseline_counts.values()),
        "raw_events_per_sec": len(events) / raw_best,
        "serving_overhead_ratio": serving_overhead,
        "policies": policies,
        "boost_sweep": sweep,
    }


def bench_trace(
    n_queries: int = DEFAULT_TRACE_QUERIES,
    n_events: int = DEFAULT_TRACE_EVENTS,
    repeats: int = 3,
    capacity: int = 65_536,
) -> Dict[str, object]:
    """Tracer overhead on the multi-query serving path.

    The same 1-shard shared jit_aware run (the configuration where the
    tracer instruments every layer: scheduler pops, operator steps, tee
    fan-out, MNS pairing) is measured with no tracer at all, with a tracer
    attached but *disabled*, and with head-based sampling at 0, 10 and 100
    percent.  The acceptance bound — a fully disabled tracer costs at most
    2% events/sec versus no tracer (one attribute load and one branch per
    hook site) — is recorded in ``BENCH_trace.json``; repeats are
    interleaved and best-of so a noisy stretch cannot skew one variant.
    Every variant must reproduce the untraced per-query result counts
    exactly (tracing is observation only).
    """
    from repro.trace import Tracer

    n_sources = 4
    workload = generate_multi_query_workload(
        n_queries=n_queries,
        n_sources=n_sources,
        rate=1.0,
        window_seconds=30.0,
        dmax=400,
        duration=max(1.0, n_events / n_sources),
        seed=13,
    )
    events = workload.events()
    registry = _multi_registry(workload)

    variants: List[Tuple[str, object]] = [
        ("untraced", None),
        ("disabled", lambda: Tracer(enabled=False)),
        ("rate_0.0", lambda: Tracer(sample_rate=0.0, capacity=capacity, seed=0)),
        ("rate_0.1", lambda: Tracer(sample_rate=0.1, capacity=capacity, seed=0)),
        ("rate_1.0", lambda: Tracer(sample_rate=1.0, capacity=capacity, seed=0)),
    ]
    best: Dict[str, float] = {}
    tracer_stats: Dict[str, Dict[str, float]] = {}
    baseline_counts: Optional[Dict[str, int]] = None
    for _ in range(max(1, repeats)):
        for label, factory in variants:
            with ShardedEngine(
                registry,
                n_shards=1,
                scheduler="jit_aware",
                share_subplans=True,
                keep_results=False,
            ) as engine:
                tracer = factory() if factory is not None else None
                if tracer is not None:
                    engine.attach_tracer(tracer)
                start = time.perf_counter()
                report = engine.run(events)
                elapsed = time.perf_counter() - start
            counts = report.result_counts()
            if baseline_counts is None:
                baseline_counts = counts
            assert counts == baseline_counts, (
                f"trace/{label} changed the per-query results"
            )
            best[label] = min(best.get(label, float("inf")), elapsed)
            if tracer is not None:
                tracer_stats[label] = tracer.stats()

    rows: Dict[str, Dict[str, float]] = {}
    untraced = len(events) / best["untraced"]
    for label, _factory in variants:
        rows[label] = {
            "events_per_sec": len(events) / best[label],
            "wall_seconds": best[label],
            "throughput_vs_untraced": (len(events) / best[label]) / untraced,
            **tracer_stats.get(label, {}),
        }
    disabled_ratio = rows["disabled"]["throughput_vs_untraced"]
    assert baseline_counts is not None
    return {
        "config": {
            "n_queries": n_queries,
            "n_sources": n_sources,
            "n_events": len(events),
            "window_seconds": 30.0,
            "dmax": 400,
            "seed": 13,
            "strategy": STRATEGY_JIT,
            "scheduler": "jit_aware",
            "share_subplans": True,
            "n_shards": 1,
            "ring_capacity": capacity,
            "repeats": repeats,
        },
        "total_results": sum(baseline_counts.values()),
        "variants": rows,
        "acceptance": {
            "disabled_vs_untraced": disabled_ratio,
            "max_allowed_overhead": 0.02,
            "ok": disabled_ratio >= 0.98,
        },
    }


def record_trace(
    out_path: Path,
    n_queries: int = DEFAULT_TRACE_QUERIES,
    n_events: int = DEFAULT_TRACE_EVENTS,
    sample_rate: float = 1.0,
) -> Path:
    """Run the shared multi-query workload traced and export a Chrome trace.

    The written JSON is schema-validated and loadable in Perfetto / Chrome
    ``about:tracing`` (see ``docs/TRACING.md``).
    """
    from repro.trace import Tracer, validate_chrome_trace

    n_sources = 4
    workload = generate_multi_query_workload(
        n_queries=n_queries,
        n_sources=n_sources,
        rate=1.0,
        window_seconds=30.0,
        dmax=400,
        duration=max(1.0, n_events / n_sources),
        seed=13,
    )
    events = workload.events()
    registry = _multi_registry(workload)
    tracer = Tracer(sample_rate=sample_rate, capacity=1_048_576, seed=0)
    with ShardedEngine(
        registry,
        n_shards=1,
        scheduler="jit_aware",
        share_subplans=True,
        keep_results=False,
    ) as engine:
        engine.attach_tracer(tracer)
        engine.run(events)
    validate_chrome_trace(tracer.chrome_trace())
    tracer.write_chrome_trace(out_path)
    stats = tracer.stats()
    print(
        f"trace: {stats['traces_sampled']:.0f}/{stats['traces_started']:.0f} traces "
        f"sampled (rate={sample_rate:g}), {stats['spans_recorded']:.0f} spans "
        f"({stats['spans_dropped']:.0f} dropped), mns paired={stats['mns_pairs_closed']:.0f} "
        f"-> {out_path}"
    )
    return out_path


def _format_trace(table: Dict[str, object]) -> str:
    config = table["config"]
    lines = [
        f"tracer overhead ({config['n_queries']} queries, {config['n_events']} "
        f"events/variant, 1 shard, shared, jit_aware)"
    ]
    for label, row in table["variants"].items():
        extra = ""
        if "spans_recorded" in row:
            extra = (
                f"  spans={row['spans_recorded']:,.0f} "
                f"dropped={row['spans_dropped']:,.0f}"
            )
        lines.append(
            f"  {label:<10} {row['events_per_sec']:>10,.0f} ev/s "
            f"({row['throughput_vs_untraced']:.3f}x of untraced){extra}"
        )
    acceptance = table["acceptance"]
    lines.append(
        f"  acceptance: disabled tracer at {acceptance['disabled_vs_untraced']:.3f}x "
        f"of untraced (>=0.98 required) ({'OK' if acceptance['ok'] else 'FAIL'})"
    )
    return "\n".join(lines)


def bench_health(
    n_queries: int = DEFAULT_HEALTH_QUERIES,
    n_events: int = DEFAULT_HEALTH_EVENTS,
    repeats: int = 4,
    capacity: int = 4_096,
    n_shards: int = 2,
) -> Dict[str, object]:
    """Health-monitor overhead on the serving path.

    The same 2-shard jit_aware served workload (block policy, full
    telemetry) is driven with no :class:`~repro.health.HealthMonitor`,
    with an idle monitor attached (lag/SLO machinery wired but never
    polled — the steady state of a deployment that only scrapes
    ``health_*`` families on demand), and with the stall watchdog's
    background thread running at its default cadence.  The acceptance
    bound — an idle monitor costs at most 2% events/sec versus
    unmonitored — is recorded in ``BENCH_health.json``.

    An idle monitor adds nothing to the per-event path — no feedback
    listener (the shards count their own feedback, monitored or not),
    only the serving sink's progress cell, which every variant pays —
    so any difference is far inside the wall-clock noise of a shared
    machine, and naive per-variant timing cannot resolve a 2% bound.
    Instead every variant keeps its own server and the *same*
    event stream is fed to all of them in small interleaved batches
    (order rotated per batch, garbage collector pinned outside the
    clocks): machine drift slower than a batch hits every variant
    equally.  Each variant's cost floor is then the sum of its
    *per-batch minima* across repeats — noise only ever adds time, so
    the floor converges on the true cost from above — and acceptance is
    the ratio of floors.  Monitoring is observation only, so every
    variant must reproduce the unmonitored per-query result counts
    exactly.
    """
    from repro.health import HealthMonitor
    from repro.serve import OverloadPolicy, StreamServer

    n_sources = 4
    workload = generate_multi_query_workload(
        n_queries=n_queries,
        n_sources=n_sources,
        rate=1.0,
        window_seconds=25.0,
        dmax=200,
        duration=max(1.0, n_events / n_sources),
        seed=19,
    )
    events = workload.events()
    registry = _multi_registry(workload)

    variants = ("unmonitored", "idle_monitor", "watchdog_thread")
    batch = max(25, len(events) // 80)
    batches = [events[start : start + batch] for start in range(0, len(events), batch)]

    def paired_run() -> Tuple[Dict[str, List[float]], Dict[str, Dict[str, int]]]:
        servers: Dict[str, StreamServer] = {}
        monitors: Dict[str, HealthMonitor] = {}
        for variant in variants:
            engine = ShardedEngine(
                registry, n_shards=n_shards, scheduler="jit_aware", keep_results=False
            )
            server = StreamServer(engine, capacity=capacity, policy=OverloadPolicy.BLOCK)
            if variant != "unmonitored":
                monitor = HealthMonitor(
                    server,
                    stall_deadline=1.0 if variant == "watchdog_thread" else None,
                )
                if variant == "watchdog_thread":
                    monitor.start()
                monitors[variant] = monitor
            servers[variant] = server
        per_batch: Dict[str, List[float]] = {variant: [] for variant in variants}
        gc.disable()
        try:
            for index, chunk in enumerate(batches):
                rotation = index % len(variants)
                gc.collect()  # prior batches' garbage, outside the clocks
                for variant in variants[rotation:] + variants[:rotation]:
                    server = servers[variant]
                    start = time.perf_counter()
                    for event in chunk:
                        server.submit(event)
                    server.flush()
                    per_batch[variant].append(time.perf_counter() - start)
        finally:
            gc.enable()
        counts = {
            variant: {
                entry.query_id: servers[variant].results_for(entry.query_id).count
                for entry in registry
            }
            for variant in variants
        }
        for monitor in monitors.values():
            # One evaluation proves the wiring stayed live end to end;
            # its (deliberate, pull-time) cost stays out of the clocks.
            monitor.check()
        for variant in variants:
            servers[variant].close()
        return per_batch, counts

    runs: List[Dict[str, List[float]]] = []
    round_ratios: List[float] = []
    baseline_counts: Optional[Dict[str, int]] = None
    for _ in range(max(1, repeats)):
        per_batch, counts = paired_run()
        if baseline_counts is None:
            baseline_counts = counts["unmonitored"]
        for variant in variants:
            assert counts[variant] == baseline_counts, (
                f"health/{variant} changed the per-query results"
            )
        runs.append(per_batch)
        round_ratios.append(
            sum(per_batch["unmonitored"]) / sum(per_batch["idle_monitor"])
        )

    floors = {
        variant: sum(
            min(run[variant][index] for run in runs) for index in range(len(batches))
        )
        for variant in variants
    }
    rows: Dict[str, Dict[str, float]] = {}
    unmonitored = len(events) / floors["unmonitored"]
    for variant in variants:
        rows[variant] = {
            "events_per_sec": len(events) / floors[variant],
            "wall_seconds": floors[variant],
            "throughput_vs_unmonitored": (len(events) / floors[variant]) / unmonitored,
        }
    idle_ratio = rows["idle_monitor"]["throughput_vs_unmonitored"]
    assert baseline_counts is not None
    return {
        "config": {
            "n_queries": n_queries,
            "n_sources": n_sources,
            "n_events": len(events),
            "window_seconds": 25.0,
            "dmax": 200,
            "seed": 19,
            "strategy": STRATEGY_JIT,
            "scheduler": "jit_aware",
            "capacity": capacity,
            "n_shards": n_shards,
            "repeats": repeats,
            "batch_events": batch,
        },
        "total_results": sum(baseline_counts.values()),
        "variants": rows,
        "acceptance": {
            "idle_vs_unmonitored": idle_ratio,
            "round_ratios": round_ratios,
            "max_allowed_overhead": 0.02,
            "ok": idle_ratio >= 0.98,
        },
    }


def _format_health(table: Dict[str, object]) -> str:
    config = table["config"]
    lines = [
        f"health monitor overhead ({config['n_queries']} queries, "
        f"{config['n_events']} events/variant, {config['n_shards']} shards, "
        f"served, jit_aware)"
    ]
    for label, row in table["variants"].items():
        lines.append(
            f"  {label:<16} {row['events_per_sec']:>10,.0f} ev/s "
            f"({row['throughput_vs_unmonitored']:.3f}x of unmonitored)"
        )
    acceptance = table["acceptance"]
    lines.append(
        f"  acceptance: idle monitor at {acceptance['idle_vs_unmonitored']:.3f}x "
        f"of unmonitored (ratio of per-batch-minima floors, >=0.98 required) "
        f"({'OK' if acceptance['ok'] else 'FAIL'})"
    )
    return "\n".join(lines)


def _format_serve(table: Dict[str, object]) -> str:
    config = table["config"]
    lines = [
        f"serving layer ({config['n_queries']} queries, {config['n_events']} events, "
        f"{table['total_results']} results): raw {table['raw_events_per_sec']:,.0f} ev/s, "
        f"served/raw throughput = {table['serving_overhead_ratio']:.2f}x"
    ]
    for policy, row in table["policies"].items():
        lines.append(
            f"  {policy:<12} cap={row['capacity']:<4} {row['events_per_sec']:>10,.0f} ev/s  "
            f"delivered={row['delivered']} shed={row['shed']} "
            f"p50={row['latency_p50']:.2f}s p99={row['latency_p99']:.2f}s"
        )
    lines.append("  boost sweep (block policy, jit_aware boost duration):")
    for row in table["boost_sweep"]:
        lines.append(
            f"    {row['scheduler']:<14} {row['events_per_sec']:>10,.0f} ev/s  "
            f"boosts={row['boosts_granted']:.0f} boosted_servings={row['boosted_servings']:.0f}"
        )
    return "\n".join(lines)


def _format(table: Dict[str, Dict[str, float]], title: str) -> str:
    lines = [title]
    for key, row in table.items():
        cells = "  ".join(
            f"{name}={value:,.0f} ev/s" if name != "speedup" else f"speedup={value:.2f}x"
            for name, value in row.items()
        )
        lines.append(f"  {key:<24} {cells}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- pytest


def test_indexed_probe_speedup():
    """Acceptance: ≥3x events/sec for hash-indexed equi-join probes at 10k events."""
    table = bench_probe_paths(DEFAULT_EVENTS)
    print()
    print(_format(table, "probe paths (10k events)"))
    sync_jit = table[f"{STRATEGY_JIT}/{ExecutionMode.SYNCHRONOUS}"]
    assert sync_jit["speedup"] >= 3.0, (
        f"expected >=3x from hash-indexed probes, got {sync_jit['speedup']:.2f}x"
    )


def test_serving_layer_accounting():
    """Acceptance (ISSUE 6): the block-policy server reproduces raw engine
    results exactly, shedding policies account every event, and the
    boost-steps sweep never changes per-query results.

    Deliberately no timing thresholds — the serving overhead is recorded in
    ``BENCH_serve.json``; this test pins only the correctness half so it
    cannot flake on shared-runner noise.
    """
    table = bench_serve(
        n_queries=12, n_events=1_200, boost_steps=(2, 8), capacity=64, repeats=1
    )
    print()
    print(_format_serve(table))
    for policy, row in table["policies"].items():
        assert row["shed_total_matches"], f"{policy}: shed accounting mismatch: {row}"
        if policy == "block":
            assert row["shed"] == 0
            assert row["delivered"] == table["config"]["n_events"]
    # jit_aware granted boosts and the sweep reported them through telemetry.
    jit_rows = [r for r in table["boost_sweep"] if r["scheduler"] != "fifo"]
    assert any(r["boosts_granted"] > 0 for r in jit_rows), (
        f"boost sweep saw no feedback boosts: {jit_rows}"
    )


def test_health_monitor_overhead():
    """Acceptance (ISSUE 10): an idle HealthMonitor must not tax the
    serving path.  The committed ``BENCH_health.json`` (2% bound via the
    interleaved-batch floor methodology) is the acceptance record; this
    threshold is looser so the test catches a real regression — a hook
    accidentally landing on the per-event path shows up as a ratio well
    below 1.0 — without flaking on shared-runner noise.  Result-count
    equality across variants is asserted inside ``bench_health`` itself
    (monitoring is observation only).
    """
    table = bench_health(n_queries=12, n_events=1_200, repeats=3)
    print()
    print(_format_health(table))
    ratio = table["acceptance"]["idle_vs_unmonitored"]
    assert ratio >= 0.90, (
        f"idle health monitor cost {1 - ratio:.1%} of serving throughput"
    )


# --------------------------------------------------------------------------- CLI


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=(
            "core", "probe", "serve", "trace", "health", "all",
        ),
        default="core",
        help="which benchmark family to run: 'core' (default) is the quick "
        "probe-path comparison; 'serve' measures the serving "
        "front-end and the jit_aware boost-steps sweep (records JSON); "
        "'trace' measures the flight recorder's overhead "
        "at every sampling rate (records JSON); 'health' measures the "
        "health monitor's idle overhead on the serving path (records "
        "JSON); 'all' runs everything",
    )
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="runs per variant (best throughput is reported)",
    )
    parser.add_argument(
        "--serve-queries",
        type=int,
        default=DEFAULT_SERVE_QUERIES,
        help="standing-query population of the serving suite",
    )
    parser.add_argument(
        "--serve-events",
        type=int,
        default=DEFAULT_SERVE_EVENTS,
        help="arrivals per serving-suite variant",
    )
    parser.add_argument(
        "--serve-capacity",
        type=int,
        default=256,
        help="ingestion buffer capacity for the serving suite's block policy "
        "(shedding policies run at capacity//8)",
    )
    parser.add_argument(
        "--boost-steps",
        default=",".join(str(n) for n in DEFAULT_BOOST_STEPS),
        help="comma-separated jit_aware boost durations swept by the serve "
        "suite (each must be positive; a FIFO baseline row is always added)",
    )
    parser.add_argument(
        "--trace-queries",
        type=int,
        default=DEFAULT_TRACE_QUERIES,
        help="standing-query population of the tracer-overhead suite and --trace",
    )
    parser.add_argument(
        "--trace-events",
        type=int,
        default=DEFAULT_TRACE_EVENTS,
        help="arrivals per tracer-overhead variant (and for --trace)",
    )
    parser.add_argument(
        "--health-queries",
        type=int,
        default=DEFAULT_HEALTH_QUERIES,
        help="standing-query population of the health-overhead suite",
    )
    parser.add_argument(
        "--health-events",
        type=int,
        default=DEFAULT_HEALTH_EVENTS,
        help="arrivals per health-overhead variant",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="additionally run the shared multi-query workload with the "
        "flight recorder attached and export a Perfetto-loadable Chrome "
        "trace (see --trace-out)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help=f"where --trace writes its Chrome trace JSON (default {DEFAULT_TRACE_OUT}); "
        "implies --trace",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="where a serve, trace or health run records its results "
        "(default: that suite's committed BENCH_*.json)",
    )
    args = parser.parse_args(argv)

    def record(suite: str, table: Dict[str, object], default: Path) -> None:
        # Only an explicit run of the suite records, so `all` never
        # clobbers a committed artifact.
        if args.suite == suite:
            json_path = args.json or default
            json_path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
            print(f"  recorded -> {json_path}")

    if args.suite in ("core", "probe", "all"):
        print(_format(bench_probe_paths(args.events), f"probe paths ({args.events} events)"))
        print()
    if args.suite in ("serve", "all"):
        table = bench_serve(
            n_queries=args.serve_queries,
            n_events=args.serve_events,
            boost_steps=tuple(int(s) for s in args.boost_steps.split(",")),
            capacity=args.serve_capacity,
            repeats=args.repeats,
        )
        print(_format_serve(table))
        record("serve", table, DEFAULT_SERVE_JSON)
    if args.suite in ("trace", "all"):
        table = bench_trace(
            n_queries=args.trace_queries,
            n_events=args.trace_events,
            repeats=args.repeats,
        )
        print(_format_trace(table))
        record("trace", table, DEFAULT_TRACE_JSON)
    if args.suite in ("health", "all"):
        table = bench_health(
            n_queries=args.health_queries,
            n_events=args.health_events,
            repeats=max(4, args.repeats),
        )
        print(_format_health(table))
        record("health", table, DEFAULT_HEALTH_JSON)
    if args.trace or args.trace_out is not None:
        record_trace(
            args.trace_out or DEFAULT_TRACE_OUT,
            n_queries=args.trace_queries,
            n_events=args.trace_events,
        )


if __name__ == "__main__":
    main()
