"""Execution-core benchmarks: probe-path throughput and counted overheads.

Unlike ``bench_figures.py``, which reports the paper's *modelled* cost
units, this file measures the execution hot path itself:

* **Probe algorithm** — nested-loop vs. hash-indexed probes
  (``use_hash_index``), for both the REF join and the JIT join, whose
  detection-free probes, MNS-detecting probes and suspension extraction
  are all served from the state's indexes; wall-clock events/sec.
* **Flight recorder** (``--suite trace``) — the :class:`~repro.trace.Tracer`
  on the shared multi-query path: no tracer vs. an attached-but-disabled
  tracer vs. head-based sampling at 0/10/100 percent.  The separate
  ``--trace`` / ``--trace-out`` flags export a schema-validated,
  Perfetto-loadable Chrome trace of the same workload.
* **Serving layer** (``--suite serve``) — the
  :class:`~repro.serve.StreamServer` front-end: the ``block`` policy vs.
  the raw engine (must stay result-bit-identical), exact loss accounting of
  ``drop_oldest`` / ``fair_shed`` under a deliberately undersized buffer,
  and a ``--boost-steps`` sweep of the jit_aware scheduler's boost duration
  (§III-B) measured *through* the serving layer with its boost counters
  surfaced from telemetry.
* **Health monitor** (``--suite health``) — an idle
  :class:`~repro.health.HealthMonitor` and one running its stall watchdog
  thread vs. an unmonitored served run.

The three overhead suites count the Python bytecodes each variant executes
on the calling thread (:func:`count_opcodes`), which repeat exactly from
run to run and across interpreters, and print one timed run per variant
beside the counts, ungated.  ``benchmarks/check_exact.py`` gates the counts
against ``BENCH_exact.json``: a disabled tracer and an idle monitor may each
cost at most 2% of the bytecodes per event (``MAX_OVERHEAD``), and the
served/raw bytecode ratio stays within 30% of its record.  The watchdog
variant's second thread is not counted, so it is reported, not gated.

The 128-query clique population (4 sources, inline vs process workers,
sub-plan sharing on vs off) is measured by ``benchmarks/e2e`` alone, as its
``clique128``, ``shared128`` and ``process2`` workloads.

Every comparison asserts that all variants produce the identical result
multiset (or identical per-query counts), so a reported speedup is never the
product of a wrong answer.

Run directly::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--events 10000]
    PYTHONPATH=src python benchmarks/bench_throughput.py --suite serve|trace|health
    python3 benchmarks/check_exact.py --check

or through pytest (the ≥3x indexed-probe speedup on the 10k-event workload
is asserted on the clock, the idle monitor's 2% bound on counts, and the
serving suite is run small for its correctness checks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py -q -s
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine import run_workload
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

#: Standing-query population of the three overhead suites.
OVERHEAD_QUERIES = 32

#: Arrivals per overhead-suite variant: a counted run executes about four
#: million bytecodes a second, so each stays within a few seconds.
DEFAULT_TRACE_EVENTS = 400
DEFAULT_SERVE_EVENTS = 500
DEFAULT_HEALTH_EVENTS = 500

#: The bytecode share a disabled tracer or an idle monitor may add per event.
MAX_OVERHEAD = 0.02

#: jit_aware boost durations swept by ``--boost-steps`` (must be positive;
#: the sweep always adds a plain-FIFO baseline row for the no-boost anchor).
DEFAULT_BOOST_STEPS = (1, 2, 4, 8, 16)

#: The engine the tracer suite and ``--trace`` run: the configuration where
#: the tracer instruments every layer (scheduler pops, operator steps, tee
#: fan-out, MNS pairing).
TRACED = {"n_shards": 1, "scheduler": "jit_aware", "share_subplans": True}

#: Where ``--trace`` writes its Chrome trace when ``--trace-out`` is omitted.
DEFAULT_TRACE_OUT = Path(__file__).resolve().parent / "trace_multi.json"


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


def bench_probe_paths(n_events: int = DEFAULT_EVENTS) -> Dict[str, Dict[str, float]]:
    """Nested-loop vs. hash-indexed probes per strategy, pushed synchronously."""
    workload = _equi_workload(n_events)
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    out: Dict[str, Dict[str, float]] = {}
    baseline_results = None
    for strategy in (STRATEGY_REF, STRATEGY_JIT):
        row: Dict[str, float] = {}
        for label, use_index in (("nested_loop", False), ("hash_index", True)):
            plan = build_xjoin_plan(
                query,
                shape=PLAN_LEFT_DEEP,
                strategy=strategy,
                use_hash_index=use_index,
            )
            start = time.perf_counter()
            report = run_workload(plan, events, workload.window.length)
            elapsed = time.perf_counter() - start
            results = result_multiset(report.results.results)
            if baseline_results is None:
                baseline_results = results
            assert results == baseline_results, f"{strategy}/{label} changed the result set"
            row[label] = len(events) / elapsed
        row["speedup"] = row["hash_index"] / row["nested_loop"]
        out[f"{strategy}/synchronous"] = row
    return out


# --------------------------------------------------------------------------- counting


def count_opcodes(run: Callable[[], object]) -> int:
    """The Python bytecodes ``run()`` executes on the calling thread.

    A global trace function asks every new frame for per-opcode events
    (``f_trace_opcodes``) and counts them.  Code in C is not counted, and
    nor is any other thread's.
    """
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        elif event == "call":
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def _drive(system, events) -> None:
    for event in events:
        system.submit(event)
    system.flush()


Check = Optional[Callable[[object], object]]


def _timed(build: Callable[[], object], events, check: Check = None) -> Tuple[float, object]:
    """Wall seconds to drive ``events`` through a fresh ``build()``, and the
    closed system.  ``check``, if given, is called with the system after the
    run, while it is still open, and outside the clock."""
    with build() as system:
        start = time.perf_counter()
        _drive(system, events)
        seconds = time.perf_counter() - start
        if check is not None:
            check(system)
        return seconds, system


def measure(build: Callable[[], object], events, check: Check = None) -> Dict[str, object]:
    """One timed run, then one counted run, each of a fresh ``build()``.

    ``build`` returns a :class:`~repro.multi.ShardedEngine` or a
    :class:`~repro.serve.StreamServer`; only submitting ``events`` and the
    final flush are timed and counted.  The timed run goes first: the first
    run in a process fills lazy caches and counts a few more bytecodes than
    every later one.  Earlier runs' garbage is collected before counting,
    so the count holds no finalizer work left over from them and the
    collector's schedule starts from zero.  ``check`` runs on each open
    system after its run, outside the clock and the count.  The row's
    ``system`` is the counted run's, closed.
    """
    seconds, _ = _timed(build, events, check)
    with build() as system:
        gc.collect()
        opcodes = count_opcodes(lambda: _drive(system, events))
        if check is not None:
            check(system)
    return {
        "opcodes": opcodes,
        "opcodes_per_event": opcodes / len(events),
        "wall_seconds": seconds,
        "system": system,
    }


def _population(n_queries: int, n_events: int, seed: int, window_seconds: float, dmax: int):
    """A 4-source multi-query workload's events, a hash-indexed JIT registry
    of its queries, and the config that names them."""
    workload = generate_multi_query_workload(
        n_queries=n_queries,
        n_sources=4,
        rate=1.0,
        window_seconds=window_seconds,
        dmax=dmax,
        duration=max(1.0, n_events / 4),
        seed=seed,
    )
    registry = QueryRegistry()
    for query in workload.queries():
        registry.register(query, strategy=STRATEGY_JIT, use_hash_index=True)
    events = workload.events()
    config = {
        "n_queries": n_queries,
        "n_events": len(events),
        "strategy": STRATEGY_JIT,
        "workload": workload.describe(),
    }
    return events, registry, config


def _counts(system, registry) -> Dict[str, int]:
    return {entry.query_id: system.results_for(entry.query_id).count for entry in registry}


# --------------------------------------------------------------------------- suites


def bench_serve(
    n_queries: int = OVERHEAD_QUERIES,
    n_events: int = DEFAULT_SERVE_EVENTS,
    boost_steps: Tuple[int, ...] = DEFAULT_BOOST_STEPS,
    capacity: int = 256,
    n_shards: int = 2,
) -> Dict[str, object]:
    """The serving-layer benchmark: policy overhead, shedding, boost sweep.

    Part one counts the :class:`~repro.serve.StreamServer` front-end
    against the raw engine on the same workload: the ``block`` policy with
    full telemetry must reproduce the raw per-query result counts exactly
    (raw over served bytecodes is ``serving_overhead_ratio``), while
    ``drop_oldest`` and ``fair_shed`` run with a deliberately undersized
    buffer (capacity//8, no interleaved draining) and must account every
    shed event.

    Part two sweeps the jit_aware scheduler's ``boost_steps`` (§III-B boost
    duration) through a block-policy server — plus a plain-FIFO baseline —
    reporting one timed run and the scheduler's boost counters
    (``boosts_granted`` / ``boosted_servings``) surfaced via the serving
    telemetry.  Scheduling order must never change results, so every sweep
    point must reproduce the baseline per-query counts.
    """
    from repro.serve import OverloadPolicy, StreamServer, get_metric_value

    events, registry, config = _population(n_queries, n_events, 17, 25.0, 200)

    def served(policy: str, cap: int, scheduler="fifo") -> Callable[[], StreamServer]:
        return lambda: StreamServer(
            ShardedEngine(registry, n_shards=n_shards, scheduler=scheduler, keep_results=False),
            capacity=cap,
            policy=policy,
        )

    raw = measure(
        lambda: ShardedEngine(registry, n_shards=n_shards, keep_results=False), events
    )
    baseline_counts = _counts(raw.pop("system"), registry)

    policies: Dict[str, Dict[str, object]] = {}
    for policy in OverloadPolicy.ALL:
        cap = capacity if policy == OverloadPolicy.BLOCK else max(8, capacity // 8)
        row = measure(served(policy, cap), events)
        server = row.pop("system")
        if policy == OverloadPolicy.BLOCK:
            assert _counts(server, registry) == baseline_counts, (
                f"served/{policy} changed the per-query results"
            )
        report = server.report()
        assert report.delivered + report.shed == report.ingested == len(events), (
            f"served/{policy} lost events without accounting: {report}"
        )
        policies[policy] = {
            **row,
            "capacity": cap,
            "delivered": report.delivered,
            "shed": report.shed,
            "shed_total_matches": sum(report.shed_by_source.values()) == report.shed,
            "latency_p50": report.latency_quantiles.get(0.5, 0.0),
            "latency_p99": report.latency_quantiles.get(0.99, 0.0),
        }

    sweep: List[Dict[str, object]] = []
    for label, scheduler in [("fifo", "fifo")] + [
        (f"jit_aware/{steps}", (lambda s=steps: build_scheduler("jit_aware", boost_steps=s)))
        for steps in boost_steps
    ]:
        seconds, server = _timed(served(OverloadPolicy.BLOCK, capacity, scheduler), events)
        assert _counts(server, registry) == baseline_counts, (
            f"boost sweep {label} changed the per-query results"
        )
        parsed_text = server.exposition()
        sweep.append(
            {
                "scheduler": label,
                "boost_steps": None if label == "fifo" else int(label.split("/")[1]),
                "wall_seconds": seconds,
                **{
                    key: sum(
                        get_metric_value(parsed_text, f"serve_scheduler_{key}_total", {"shard": str(i)})
                        for i in range(n_shards)
                    )
                    for key in ("boosts_granted", "boosted_servings")
                },
            }
        )

    return {
        "config": {**config, "scheduler": "fifo", "capacity": capacity, "n_shards": n_shards},
        "total_results": sum(baseline_counts.values()),
        "raw": raw,
        "serving_overhead_ratio": raw["opcodes"] / policies[OverloadPolicy.BLOCK]["opcodes"],
        "policies": policies,
        "boost_sweep": sweep,
    }


def bench_trace(
    n_queries: int = OVERHEAD_QUERIES,
    n_events: int = DEFAULT_TRACE_EVENTS,
    capacity: int = 65_536,
) -> Dict[str, object]:
    """Tracer overhead on the multi-query serving path.

    The same 1-shard shared jit_aware run (``TRACED``) is counted with no
    tracer at all, with a tracer attached but *disabled*, and with
    head-based sampling at 0, 10 and 100 percent.  The acceptance bound: a
    fully disabled tracer costs at most 2% of the untraced bytecodes per
    event (one attribute load and one branch per hook site).  Every variant
    must reproduce the untraced per-query result counts exactly (tracing is
    observation only).
    """
    from repro.trace import Tracer

    events, registry, config = _population(n_queries, n_events, 13, 30.0, 400)

    tracers: Dict[str, Tracer] = {}

    def traced(label: str, factory) -> Callable[[], ShardedEngine]:
        def build() -> ShardedEngine:
            engine = ShardedEngine(registry, keep_results=False, **TRACED)
            if factory is not None:
                tracers[label] = factory()
                engine.attach_tracer(tracers[label])
            return engine

        return build

    variants = {
        "untraced": None,
        "disabled": lambda: Tracer(enabled=False),
        "rate_0.0": lambda: Tracer(sample_rate=0.0, capacity=capacity, seed=0),
        "rate_0.1": lambda: Tracer(sample_rate=0.1, capacity=capacity, seed=0),
        "rate_1.0": lambda: Tracer(sample_rate=1.0, capacity=capacity, seed=0),
    }
    rows = {label: measure(traced(label, factory), events) for label, factory in variants.items()}
    baseline_counts = _counts(rows["untraced"]["system"], registry)
    for label, row in rows.items():
        assert _counts(row.pop("system"), registry) == baseline_counts, (
            f"trace/{label} changed the per-query results"
        )
        row["vs_untraced"] = rows["untraced"]["opcodes"] / row["opcodes"]
        if label in tracers:
            row.update(tracers[label].stats())
    disabled_ratio = rows["disabled"]["vs_untraced"]
    return {
        "config": {**config, **TRACED, "ring_capacity": capacity},
        "total_results": sum(baseline_counts.values()),
        "variants": rows,
        "acceptance": {
            "disabled_vs_untraced": disabled_ratio,
            "max_allowed_overhead": MAX_OVERHEAD,
            "ok": disabled_ratio >= 1.0 - MAX_OVERHEAD,
        },
    }


def record_trace(out_path: Path) -> Path:
    """Run the tracer suite's workload fully sampled and export a Chrome trace.

    The written JSON is schema-validated and loadable in Perfetto / Chrome
    ``about:tracing`` (see ``docs/TRACING.md``).
    """
    from repro.trace import Tracer, validate_chrome_trace

    events, registry, _config = _population(OVERHEAD_QUERIES, DEFAULT_TRACE_EVENTS, 13, 30.0, 400)
    tracer = Tracer(sample_rate=1.0, capacity=1_048_576, seed=0)
    with ShardedEngine(registry, keep_results=False, **TRACED) as engine:
        engine.attach_tracer(tracer)
        engine.run(events)
    validate_chrome_trace(tracer.chrome_trace())
    tracer.write_chrome_trace(out_path)
    stats = tracer.stats()
    print(
        f"trace: {stats['traces_sampled']:.0f}/{stats['traces_started']:.0f} traces "
        f"sampled, {stats['spans_recorded']:.0f} spans "
        f"({stats['spans_dropped']:.0f} dropped), mns paired={stats['mns_pairs_closed']:.0f} "
        f"-> {out_path}"
    )
    return out_path


def bench_health(
    n_queries: int = OVERHEAD_QUERIES,
    n_events: int = DEFAULT_HEALTH_EVENTS,
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
    bound — an idle monitor costs at most 2% of the unmonitored bytecodes
    per event — counts the engine thread only, so the watchdog variant's
    own thread is not in its count and that variant is not gated.
    Monitoring is observation only, so every variant must reproduce the
    unmonitored per-query result counts exactly.
    """
    from repro.health import HealthMonitor
    from repro.serve import OverloadPolicy, StreamServer

    events, registry, config = _population(n_queries, n_events, 19, 25.0, 200)

    monitors: Dict[str, HealthMonitor] = {}

    def monitored(variant: str) -> Callable[[], StreamServer]:
        def build() -> StreamServer:
            engine = ShardedEngine(
                registry, n_shards=n_shards, scheduler="jit_aware", keep_results=False
            )
            server = StreamServer(engine, capacity=capacity, policy=OverloadPolicy.BLOCK)
            if variant != "unmonitored":
                monitors[variant] = HealthMonitor(
                    server, stall_deadline=1.0 if variant == "watchdog_thread" else None
                )
                monitors[variant].start()
            return server

        return build

    variants = ("unmonitored", "idle_monitor", "watchdog_thread")
    # One evaluation of each live monitor proves the wiring stayed live end
    # to end; its (deliberate, pull-time) cost stays out of the counts.
    checks = {variant: lambda _server, v=variant: monitors[v].check() for variant in variants[1:]}
    rows = {variant: measure(monitored(variant), events, checks.get(variant)) for variant in variants}
    baseline_counts = _counts(rows["unmonitored"]["system"], registry)
    for variant, row in rows.items():
        assert _counts(row.pop("system"), registry) == baseline_counts, (
            f"health/{variant} changed the per-query results"
        )
        row["vs_unmonitored"] = rows["unmonitored"]["opcodes"] / row["opcodes"]
    idle_ratio = rows["idle_monitor"]["vs_unmonitored"]
    return {
        "config": {**config, "scheduler": "jit_aware", "capacity": capacity, "n_shards": n_shards},
        "total_results": sum(baseline_counts.values()),
        "variants": rows,
        "acceptance": {
            "idle_vs_unmonitored": idle_ratio,
            "max_allowed_overhead": MAX_OVERHEAD,
            "ok": idle_ratio >= 1.0 - MAX_OVERHEAD,
        },
    }


# --------------------------------------------------------------------------- report


def _row(label: str, row: Dict[str, object], base: str = "") -> str:
    ratio = f" ({row['vs_' + base]:.4f}x of {base})" if base else ""
    return (
        f"  {label:<16} {row['opcodes_per_event']:>12,.4f} opcodes/event{ratio}  "
        f"[{row['wall_seconds']:.3f} s, ungated]"
    )


def _format_overhead(table: Dict[str, object], what: str, base: str, ratio: str) -> str:
    config = table["config"]
    lines = [
        f"{what} overhead ({config['n_queries']} queries, {config['n_events']} "
        f"events/variant, {config['n_shards']} shard(s), {config['scheduler']})"
    ]
    for label, row in table["variants"].items():
        spans = (
            f"  spans={row['spans_recorded']:,.0f} dropped={row['spans_dropped']:,.0f}"
            if "spans_recorded" in row else ""
        )
        lines.append(_row(label, row, base) + spans)
    acceptance = table["acceptance"]
    lines.append(
        f"  acceptance: {ratio} = {acceptance[ratio]:.4f}x of the {base} bytecodes "
        f"(>={1 - MAX_OVERHEAD} required) ({'OK' if acceptance['ok'] else 'FAIL'})"
    )
    return "\n".join(lines)


def _format_serve(table: Dict[str, object]) -> str:
    config = table["config"]
    lines = [
        f"serving layer ({config['n_queries']} queries, {config['n_events']} events, "
        f"{table['total_results']} results): served/raw = "
        f"{table['serving_overhead_ratio']:.4f}x of the raw bytecodes",
        _row("raw", table["raw"]),
    ]
    for policy, row in table["policies"].items():
        lines.append(
            _row(policy, row) + f"  cap={row['capacity']} delivered={row['delivered']} "
            f"shed={row['shed']} p50={row['latency_p50']:.2f}s p99={row['latency_p99']:.2f}s"
        )
    lines.append("  boost sweep (block policy, jit_aware boost duration, one timed run each):")
    for row in table["boost_sweep"]:
        lines.append(
            f"    {row['scheduler']:<14} {row['wall_seconds']:.3f} s  "
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
    """Acceptance: ≥3x events/sec for hash-indexed equi-join probes at 10k events.

    This one stays on the clock: counted, the indexed path's advantage is
    larger still, so a bytecode bound of 3x would check less.
    """
    table = bench_probe_paths(DEFAULT_EVENTS)
    print()
    print(_format(table, "probe paths (10k events)"))
    sync_jit = table[f"{STRATEGY_JIT}/synchronous"]
    assert sync_jit["speedup"] >= 3.0, (
        f"expected >=3x from hash-indexed probes, got {sync_jit['speedup']:.2f}x"
    )


def test_serving_layer_accounting():
    """Acceptance (ISSUE 6): the block-policy server reproduces raw engine
    results exactly, shedding policies account every event, and the
    boost-steps sweep never changes per-query results.  The served/raw
    bytecode ratio is gated by ``check_exact.py``; this test pins the
    correctness half.
    """
    table = bench_serve(n_queries=12, n_events=1_200, capacity=64, boost_steps=(2, 8))
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
    """Acceptance (ISSUE 10): an idle HealthMonitor costs at most 2% of the
    serving path's bytecodes per event.  Result-count equality across
    variants is asserted inside ``bench_health`` itself (monitoring is
    observation only).
    """
    table = bench_health()
    print()
    print(_format_overhead(table, "health monitor", "unmonitored", "idle_vs_unmonitored"))
    ratio = table["acceptance"]["idle_vs_unmonitored"]
    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"idle health monitor cost {1 - ratio:.2%} of the serving path's bytecodes"
    )


# --------------------------------------------------------------------------- CLI


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=("core", "probe", "serve", "trace", "health", "all"),
        default="core",
        help="which benchmark family to run: 'core' (default) is the quick "
        "probe-path comparison; 'serve' counts the serving front-end against "
        "the raw engine and runs the jit_aware boost-steps sweep; 'trace' "
        "counts the flight recorder at every sampling rate; 'health' counts "
        "the health monitor on the serving path; 'all' runs everything",
    )
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument(
        "--boost-steps",
        default=",".join(str(n) for n in DEFAULT_BOOST_STEPS),
        help="comma-separated jit_aware boost durations swept by the serve "
        "suite (each must be positive; a FIFO baseline row is always added)",
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
    args = parser.parse_args(argv)

    if args.suite in ("core", "probe", "all"):
        print(_format(bench_probe_paths(args.events), f"probe paths ({args.events} events)"))
        print()
    if args.suite in ("serve", "all"):
        boost_steps = tuple(int(s) for s in args.boost_steps.split(","))
        print(_format_serve(bench_serve(boost_steps=boost_steps)))
    if args.suite in ("trace", "all"):
        print(_format_overhead(bench_trace(), "tracer", "untraced", "disabled_vs_untraced"))
    if args.suite in ("health", "all"):
        print(_format_overhead(
            bench_health(), "health monitor", "unmonitored", "idle_vs_unmonitored"
        ))
    if args.trace or args.trace_out is not None:
        record_trace(args.trace_out or DEFAULT_TRACE_OUT)


if __name__ == "__main__":
    main()
