"""The measuring code: phases, rounds, cycles and the two kinds of run.

An *end-to-end* run (``--trace 0``) is a fixed number of rounds.  Round ``r``
generates its own inputs from ``round_seed(seed, r)``, sets up three times
(``setup_s``: generate, build, fork), and serves every event through the last
system in a closed loop with one client;
the modelled cost and memory are read off the system's own report, and round
0's outputs go to the REF oracle.  Rounds differ in their inputs on purpose:
the modelled cost of the JIT workload swings by 15-20% from one seed to the
next, and averaging over rounds is what keeps a run's figure a property of
the workload and not of one sample.  Nothing is traced and, on the recording
box, nothing wall-clock is gated here except ``setup_s`` (see README,
"Why the timings are not gated").

A *per-layer* run (``--trace 1``) repeats, until its time is up, a cycle of
four passes over the first half of round 0's events, each on a freshly built
system: untraced closed loop (``events_per_s``, ``cpu_us_per_event``),
untraced one-event-in-flight loop (``emit_latency_*``), closed loop under
span wrappers, closed loop under cProfile.  Each metric is the median over
cycles.
"""

from __future__ import annotations

import gc
import pickle
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine.results import ResultCollector

import ledger as ledger_mod
import oracle
import spans
from workloads import JIT_STATS, Inputs, round_seed

#: One round is sized to take about this long on the recording box.
NOMINAL_ROUND_SECONDS = 3.0
#: Stop adding rounds once a run has taken this multiple of ``--seconds``.
OVERRUN = 1.5
#: Each round sets up this many times (the last one is the system it serves).
SETUPS_PER_ROUND = 3

now = time.perf_counter


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Parent high-water RSS plus the largest reaped worker's (0 without workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


# -- phases ----------------------------------------------------------------------


def closed_loop(system, events: list) -> int:
    """Closed loop, one client: submit back-to-back, flush once. Returns refusals."""
    refused = 0
    submit = system.submit
    for event in events:
        if submit(event) is False:
            refused += 1
    system.flush()
    return refused


@dataclass
class ClosedPass:
    """One freshly built system driven through one closed loop, then closed."""

    events: int
    wall: float
    parent_cpu: float
    worker_cpu: float
    refused: int
    exact: dict
    counters: Dict[str, float]
    gen2_collections: int
    system: object
    #: Whatever ``around`` returned (the per-layer ledger), else ``None``.
    around_result: object = None

    @property
    def cpu(self) -> float:
        return self.parent_cpu + self.worker_cpu


def closed_pass(workload, inputs: Inputs, events: list, around=None, system=None) -> ClosedPass:
    """Build (unless given a ``system``), ``gc.collect()``, time the closed
    loop, read the state, close.

    ``around(run)`` lets the per-layer run put the loop (and only the loop)
    under a profiler.
    """
    workers_before = _children_cpu()
    if system is None:
        system = workload.build(inputs)
    gc.collect()
    gen2_before = gc.get_stats()[2]["collections"]
    outcome = {}

    def run() -> None:
        outcome["refused"] = closed_loop(system, events)

    cpu_before = time.process_time()
    started = now()
    around_result = run() if around is None else around(run)
    wall = now() - started
    parent_cpu = time.process_time() - cpu_before
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    exact = system.exact()
    counters = system.counters(events)
    refused = outcome["refused"] + system.refused()
    system.close()
    return ClosedPass(
        events=len(events), wall=wall, parent_cpu=parent_cpu,
        worker_cpu=_children_cpu() - workers_before, refused=refused,
        exact=exact, counters=counters, gen2_collections=gen2,
        system=system, around_result=around_result,
    )


@contextmanager
def timing_results(since: Callable[[object], float]) -> Iterator[List[float]]:
    """Wrap ``ResultCollector.add``; yields the list each result's latency
    (``now - since(result)``) is appended to.

    The wrapper goes in *before* the system is built, so the sinks the server
    and the backends bind at build time chain into it.
    """
    latencies: List[float] = []
    original_add = ResultCollector.add

    def timed_add(self, tup) -> None:
        original_add(self, tup)
        latencies.append(now() - since(tup))

    with spans.patched(ResultCollector, "add", timed_add):
        yield latencies


def single_pass(workload, inputs: Inputs, events: list) -> Tuple[List[float], List[float]]:
    """One event in flight: ``submit(e); flush()`` per event on a fresh system.

    Returns ``(result latencies, event round trips)`` in seconds.  A result's
    latency runs from the ``submit`` call of the event being served to the
    query's ``ResultCollector.add``.
    """
    roundtrips: List[float] = []
    submitted = [0.0]
    with timing_results(lambda tup: submitted[0]) as latencies:
        system = workload.build(inputs)
        gc.collect()
        submit, flush = system.submit, system.flush
        for event in events:
            submitted[0] = started = now()
            submit(event)
            flush()
            roundtrips.append(now() - started)
        system.close()
    return latencies, roundtrips


# -- the end-to-end run ----------------------------------------------------------


def planned_rounds(seconds: float) -> int:
    """Rounds are a function of ``--seconds`` alone, so the work is repeatable."""
    return max(1, int(seconds / NOMINAL_ROUND_SECONDS))


def timed_setup(workload, generator_seed: int, smoke: bool):
    """Everything up to the first ``submit``: generate, register, build, fork."""
    started = now()
    inputs = workload.generate(generator_seed, smoke)
    system = workload.build(inputs)
    return now() - started, inputs, system


def run_end_to_end(workload, seed: int, seconds: float, smoke: bool) -> dict:
    started = now()
    rounds = []
    setups: List[float] = []
    verdict: Optional[oracle.OracleVerdict] = None
    oracle_s = 0.0
    peak_rss_mb = 0.0
    for index in range(planned_rounds(seconds)):
        generator_seed = round_seed(seed, index)
        for _ in range(SETUPS_PER_ROUND - 1):
            setup_s, _inputs, spare = timed_setup(workload, generator_seed, smoke)
            spare.close()
            setups.append(setup_s)
        setup_s, inputs, system = timed_setup(workload, generator_seed, smoke)
        setups.append(setup_s)
        closed = closed_pass(workload, inputs, inputs.events, system=system)
        if index == 0:
            peak_rss_mb = _peak_rss_mb()
            oracle_started = now()
            if workload.serving:
                verdict = oracle.check_serving(workload, inputs, closed.system, closed.exact)
            else:
                verdict = oracle.check_paper(
                    workload, generator_seed, closed.exact, closed.counters["mns_detected"]
                )
            oracle_s = now() - oracle_started
        rounds.append(
            {
                "seed": generator_seed,
                "events": closed.events,
                "cpu_units": closed.exact["cpu_units"],
                "peak_memory_kb": closed.exact["peak_memory_kb"],
                "results": sum(closed.exact["result_counts"].values()),
                "scheduler_steps": closed.counters["scheduler_steps"],
                "refused": closed.refused,
            }
        )
        if now() - started - oracle_s > OVERRUN * seconds:
            break

    def over_rounds(key: str) -> List[float]:
        return [r[key] for r in rounds]

    events = sum(over_rounds("events"))
    metrics = {
        # The box runs at two speeds (README, "Why the timings are not gated");
        # the fast end is the one that repeats, so set-up time is read there.
        "setup_s": (sorted(setups)[min(1, len(setups) - 1)], "s"),
        "cpu_units_per_event": (sum(over_rounds("cpu_units")) / events, "units"),
        "peak_memory_kb": (statistics.fmean(over_rounds("peak_memory_kb")), "KB"),
        "ref_over_jit_cpu_units": (verdict.ref_over_jit, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {
        "correct": not verdict.mismatches,
        "attempted": events,
        "failed": sum(over_rounds("refused")) + len(verdict.mismatches),
        "metrics": metrics,
        "detail": {
            "rounds": rounds,
            "setups_s": setups,
            "oracle_s": oracle_s,
            "oracle_checks": verdict.checks,
            "mismatches": verdict.mismatches,
            "exact": {
                key: over_rounds(key)
                for key in ("cpu_units", "peak_memory_kb", "results", "scheduler_steps")
            },
        },
    }


# -- the per-layer run -----------------------------------------------------------


def _pickled_bytes(workload, system, events: list) -> int:
    """Bytes the process backend pickles for these events (0 in other modes)."""
    if workload.drain_mode != "process":
        return 0
    router = system.engine.router
    return sum(
        len(pickle.dumps(("evt", event, None, event.ts))) * len(router.shards_for(event.source))
        for event in events
    )


#: Spans whose duration is the engine-side service of one event.
_SERVICE_SPANS = (
    "multi.sharded:ShardedEngine.submit",
    "engine.engine:ExecutionEngine.process_event",
)


def run_per_layer(workload, seed: int, seconds: float, smoke: bool, span_path) -> dict:
    started = now()
    inputs = workload.generate(round_seed(seed, 0), smoke)
    events = inputs.events[: len(inputs.events) // 2]
    n = len(events)
    event_index = {id(event): position for position, event in enumerate(events)}
    cycles: List[Dict[str, float]] = []
    problems: List[str] = []
    refused = 0
    recorder = None
    while True:
        cycle_started = now()
        baseline = closed_pass(workload, inputs, events)
        latencies, roundtrips = single_pass(workload, inputs, events)
        # paper-leftdeep yields no final results by the paper's design; there
        # an event's own submit->flush time stands in for its results' latency.
        emitted = latencies if workload.serving else roundtrips
        with spans.recording(event_index) as recorder:
            spanned = closed_pass(workload, inputs, events)
        traced = closed_pass(workload, inputs, events, around=ledger_mod.profile)
        book = traced.around_result

        for label, other in (("spans", spanned), ("ledger", traced)):
            if other.exact["result_counts"] != baseline.exact["result_counts"]:
                problems.append(f"{label} pass changed the per-query result counts")
            if other.counters != baseline.counters:
                problems.append(f"{label} pass changed the public counters")
        refused += baseline.refused + spanned.refused + traced.refused

        cycle: Dict[str, float] = {
            "events_per_s": n / baseline.wall,
            "cpu_us_per_event": baseline.cpu / n * 1e6,
            "emit_latency_p50_ms": quantile(emitted, 0.50) * 1e3,
            "emit_latency_p99_ms": quantile(emitted, 0.99) * 1e3,
        }
        for layer in ledger_mod.SUBLAYERS:
            cycle[f"{layer}.self_us_per_event"] = book.seconds.get(layer, 0.0) / n * 1e6
            cycle[f"{layer}.calls_per_event"] = book.calls.get(layer, 0.0) / n
        counters = baseline.counters
        service = list(recorder.durations_by_trace(_SERVICE_SPANS).values())
        cycle.update(
            {
                "scheduler.steps_per_event": counters["scheduler_steps"] / n,
                "scheduler.boosts_granted": counters["boosts_granted"],
                "metrics.charges_per_event": book.function_calls("metrics", "charge") / n,
                "metrics.mem_ops_per_event": book.function_calls("metrics", "allocate", "release") / n,
                **{f"core.{key}": counters[key] for key in JIT_STATS},
                "operators.tee.deliveries_per_event": counters["tee_deliveries"] / n,
                "multi.router.fanout_per_event": counters["router_fanout"] / n,
                "multi.shared_subplans_active": counters["shared_subplans_active"],
                "multi.backend.worker_cpu_share": baseline.worker_cpu / baseline.cpu,
                "multi.backend.parent_wait_share": book.wait_seconds / book.wall,
                "multi.backend.pickled_bytes_per_event": _pickled_bytes(workload, baseline.system, events) / n,
                "multi.backend.roundtrip_p50_ms": quantile(roundtrips, 0.50) * 1e3,
                "serve.event_service_p50_ms": quantile(service, 0.50) * 1e3,
                "serve.event_service_p99_ms": quantile(service, 0.99) * 1e3,
                "serve.backpressure_engagements": counters["backpressure_engagements"],
                "gc.gen2_collections": baseline.gen2_collections,
                "ledger.py_calls_per_event": book.python_calls / n,
                "ledger.unattributed_share": book.unattributed_share,
                "ledger.tracing_overhead_ratio": traced.wall / baseline.wall,
                "ledger.span_overhead_ratio": spanned.wall / baseline.wall,
            }
        )
        cycles.append(cycle)
        # Start another cycle only if at least half of it fits the time left.
        if now() - started + (now() - cycle_started) / 2 >= seconds:
            break
    recorder.write_chrome_trace(span_path)
    metrics = {
        name: (statistics.median(cycle[name] for cycle in cycles), unit_of(name))
        for name in cycles[0]
    }
    return {
        "correct": not problems,
        "attempted": 4 * n * len(cycles),
        "failed": refused + len(problems),
        "metrics": metrics,
        "detail": {
            "cycles": len(cycles),
            "events_per_pass": n,
            "problems": problems,
            "span_file": str(span_path),
            "span_count": recorder.span_count,
            "span_self_us_per_event": {
                name: seconds_ / n * 1e6
                for name, (_calls, seconds_) in sorted(recorder.self_times().items())
            },
            "ledger_wall_s": book.wall,
            "ledger_attributed_s": book.attributed,
        },
    }


def unit_of(metric: str) -> str:
    """The unit a per-layer metric is printed with (by the suffix of its name)."""
    for suffix, unit in (
        (".self_us_per_event", "us"),
        ("events_per_s", "1/s"),
        ("cpu_us_per_event", "us"),
        ("_ms", "ms"),
        ("_share", "ratio"),
        ("_ratio", "ratio"),
        ("bytes_per_event", "B"),
        ("_per_event", "count"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


# -- the ungated open-loop diagnostic --------------------------------------------


def run_paced(workload, seed: int, smoke: bool) -> dict:
    """Replay round 0's own Poisson timestamps through ``AsyncStreamServer``.

    Open loop: event ``i`` is *due* at ``(ts_i - ts_0) / speed_up`` whatever
    the server is doing, and a result is timed from the due time of its newest
    contributing event (the result's own timestamp), so a stall is charged to
    every result it delays.  On this shared box the figures move by 2-3x
    between identical runs, which is why they gate nothing.
    """
    import asyncio

    from repro.serve import AsyncStreamServer

    inputs = workload.generate(round_seed(seed, 0), smoke)
    events = inputs.events
    first_ts = events[0].ts
    virtual_rate = (len(events) - 1) / (events[-1].ts - first_ts)
    speed_up = workload.paced_rate / virtual_rate
    lateness: List[float] = []
    origin = [0.0]

    def due(ts: float) -> float:
        return origin[0] + (ts - first_ts) / speed_up

    async def replay(system) -> None:
        async with system.front as server:
            origin[0] = now()
            for event in events:
                wait = due(event.ts) - now()
                if wait > 0:
                    await asyncio.sleep(wait)
                lateness.append(max(0.0, now() - due(event.ts)))
                await server.submit(event)
            await server.flush()

    with timing_results(lambda tup: due(tup.ts)) as latencies:
        system = workload.build(inputs, front=AsyncStreamServer)
        gc.collect()
        asyncio.run(replay(system))
    refused = system.refused()
    metrics = {
        "serve.paced_latency_p50_ms": (quantile(latencies, 0.50) * 1e3, "ms"),
        "serve.paced_latency_p99_ms": (quantile(latencies, 0.99) * 1e3, "ms"),
        "serve.paced_backlog_max": (system.server.buffer.high_watermark, "count"),
        "serve.paced_generator_lateness_p99_ms": (quantile(lateness, 0.99) * 1e3, "ms"),
    }
    return {
        "correct": refused == 0,
        "attempted": len(events),
        "failed": refused,
        "metrics": metrics,
        "detail": {"paced_rate": workload.paced_rate, "results": len(latencies)},
    }
