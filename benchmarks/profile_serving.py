"""py-spy-ready profiling harness for the serving layer.

Runs a sustained serving loop — workload generation up front, then a pure
submit/drain/flush hot loop — so a sampling profiler sees only serving-path
frames.  The stage boundaries are separate named functions
(``ingest_phase``, ``drain_phase``) on purpose: they show up as distinct
towers in a flamegraph.

Typical sessions (py-spy needs no code changes; install it on your own
machine — it is not a repo dependency)::

    # flamegraph of one profiling run
    py-spy record -o serve_profile.svg -- \
        python benchmarks/profile_serving.py --policy block --events 20000

    # attach to a long-running loop instead
    python benchmarks/profile_serving.py --loop &
    py-spy top --pid $!

    # no profiler: prints wall-clock + the serving report, still useful
    PYTHONPATH=src python benchmarks/profile_serving.py

The harness drives the same :class:`~repro.serve.StreamServer` +
:class:`~repro.multi.ShardedEngine` stack as ``bench_throughput.py --suite
serve``, so a flamegraph maps 1:1 onto the recorded numbers in
``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

# Allow running without PYTHONPATH=src (py-spy invocations get shorter).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF
from repro.serve import OverloadPolicy, StreamServer


def build_workload(n_queries: int, n_events: int, seed: int):
    n_sources = 4
    return generate_multi_query_workload(
        n_queries=n_queries,
        n_sources=n_sources,
        rate=1.0,
        window_seconds=25.0,
        dmax=200,
        duration=max(1.0, n_events / n_sources),
        seed=seed,
    )


def build_server(workload, args) -> StreamServer:
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(
            query,
            strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF,
            use_hash_index=True,
        )
    engine = ShardedEngine(
        registry,
        n_shards=args.shards,
        scheduler=args.scheduler,
        drain_mode=args.drain_mode,
        keep_results=False,
    )
    return StreamServer(
        engine,
        capacity=args.capacity,
        policy=args.policy,
        drain_batch=args.drain_batch,
    )


def ingest_phase(server: StreamServer, events: List) -> int:
    """The submit hot loop (one flamegraph tower)."""
    submit = server.submit
    for event in events:
        submit(event)
    return len(events)


def drain_phase(server: StreamServer) -> int:
    """The drain/flush hot loop (the other tower)."""
    return server.flush()


def run_once(args) -> None:
    workload = build_workload(args.queries, args.events, args.seed)
    events = workload.events()
    server = build_server(workload, args)
    start = time.perf_counter()
    ingest_phase(server, events)
    drain_phase(server)
    elapsed = time.perf_counter() - start
    report = server.report()
    print(f"{len(events) / elapsed:,.0f} events/sec (wall {elapsed:.2f}s)")
    print(report.summary())
    server.close()


def run_loop(args) -> None:
    """Serve the workload forever so a profiler can attach at leisure."""
    workload = build_workload(args.queries, args.events, args.seed)
    events = workload.events()
    iteration = 0
    while True:
        server = build_server(workload, args)
        start = time.perf_counter()
        ingest_phase(server, events)
        drain_phase(server)
        elapsed = time.perf_counter() - start
        server.close()
        iteration += 1
        print(
            f"iteration {iteration}: {len(events) / elapsed:,.0f} events/sec",
            flush=True,
        )


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=32)
    parser.add_argument("--events", type=int, default=8_000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--capacity", type=int, default=256)
    parser.add_argument("--drain-batch", type=int, default=64)
    parser.add_argument("--policy", choices=OverloadPolicy.ALL, default=OverloadPolicy.BLOCK)
    parser.add_argument(
        "--scheduler",
        choices=("fifo", "jit_aware"),
        default="jit_aware",
    )
    parser.add_argument(
        "--drain-mode",
        choices=("sync", "process"),
        default=None,
        help="shard worker backend (default sync; 'process' profiles "
        "the parent-side pipe/dispatch path, workers live in their own "
        "processes — point py-spy at a worker pid for the other half)",
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--loop",
        action="store_true",
        help="serve the workload repeatedly until killed (for py-spy attach)",
    )
    args = parser.parse_args(argv)
    if args.loop:
        run_loop(args)
    else:
        run_once(args)


if __name__ == "__main__":
    main()
