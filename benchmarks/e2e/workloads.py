"""The four seeded workloads and the systems they are served by.

A workload turns a seed into inputs (``generate``) and inputs into a freshly
built system (``build``).  The program under test only ever receives the
generated events; the seed stops at the generators.

Every system exposes the same five verbs — ``submit``, ``flush``, ``close``,
``exact`` and ``counters`` — so the measuring code in ``measure.py`` is the
same for a 128-query served engine and a single synchronous plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.context import ExecutionContext
from repro.core.config import JITConfig, RetentionPolicy
from repro.core.jit_join import JITJoinOperator
from repro.engine.engine import ExecutionEngine
from repro.experiments.config import LEFT_DEEP_DEFAULTS, scaled_workload
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import PLAN_LEFT_DEEP, STRATEGY_JIT, STRATEGY_REF, build_xjoin_plan
from repro.plans.query import ContinuousQuery
from repro.serve import StreamServer
from repro.streams.time import Window

#: ``--smoke`` divides every workload's size by this.
SMOKE_SHRINK = 5

#: JIT counters summed over every reachable ``JITJoinOperator.stats``.
JIT_STATS = (
    "mns_detected", "suspensions_sent", "resumptions_sent",
    "tuples_diverted", "probes_aborted", "tuples_blacklisted",
)


@dataclass
class Inputs:
    """What one seed generates: the events plus whatever ``build`` needs."""

    events: list
    source: object  # MultiQueryWorkload or CliqueJoinWorkload


def _jit_stats(plans) -> Dict[str, int]:
    totals = dict.fromkeys(JIT_STATS, 0)
    for plan in plans:
        for operator in plan.join_operators:
            if isinstance(operator, JITJoinOperator):
                for key in JIT_STATS:
                    totals[key] += operator.stats[key]
    return totals


class ServedSystem:
    """``StreamServer`` over a ``ShardedEngine`` hosting the registered queries."""

    def __init__(self, registry: QueryRegistry, spec: "ServingWorkload", front=StreamServer) -> None:
        """``front`` is ``StreamServer`` or, for the paced diagnostic, ``AsyncStreamServer``."""
        self.registry = registry
        self.engine = ShardedEngine(
            registry,
            n_shards=spec.shards,
            scheduler=spec.scheduler,
            drain_mode=spec.drain_mode,
            share_subplans=spec.share_subplans,
        )
        self.front = front(self.engine, capacity=256, policy="block", drain_batch=64)
        self.server = getattr(self.front, "server", self.front)
        self.submit = self.server.submit
        self.flush = self.server.flush
        self.close = self.server.close

    def exact(self) -> dict:
        report = self.engine.report()
        return {
            "cpu_units": report.cpu_units,
            "peak_memory_kb": report.peak_memory_kb,
            "result_counts": report.result_counts(),
            "temporally_ordered": all(
                q.results.temporally_ordered for q in report.queries.values()
            ),
        }

    def results(self, query_id: str) -> list:
        return self.engine.results_for(query_id).results

    def refused(self) -> int:
        """Events the server shed or its admission policy rejected."""
        report = self.server.report()
        return report.shed + report.rejected

    def counters(self, events: list) -> Dict[str, float]:
        shards = self.engine.shards
        plans = []
        tee_deliveries = 0
        for shard in shards:
            # Process-mode proxies mirror counters only; the plans live in the workers.
            for runtime in getattr(shard, "runtimes", ()):
                if runtime.plan is not None:
                    plans.append(runtime.plan)
            for shared in getattr(shard, "shared_subplans", list)():
                plans.append(shared.plan)
                tee_deliveries += shared.tee.delivered_count
        router = self.engine.router
        return {
            "scheduler_steps": sum(s.cost.count("scheduler_step") for s in shards),
            "boosts_granted": sum(
                s.scheduler.stats().get("boosts_granted", 0) for s in shards
            ),
            "tee_deliveries": tee_deliveries,
            "router_fanout": sum(len(router.shards_for(e.source)) for e in events),
            "shared_subplans_active": sum(s.shared_subplans_active for s in shards),
            "backpressure_engagements": self.server.report().backpressure_engagements,
            **_jit_stats(plans),
        }


class PlanSystem:
    """One plan driven synchronously by an ``ExecutionEngine`` (no serving layer)."""

    def __init__(self, plan, window_length: float) -> None:
        self.plan = plan
        self.context = ExecutionContext(window=Window(window_length))
        self.engine = ExecutionEngine(plan, self.context)
        self.submit = self.engine.submit
        self.flush = self.engine.flush

    def close(self) -> None:
        pass

    def exact(self) -> dict:
        collector = self.engine.collector
        return {
            "cpu_units": self.context.cost.cpu_units,
            "peak_memory_kb": self.context.memory.peak_kb,
            "result_counts": {"plan": collector.count},
            "temporally_ordered": collector.temporally_ordered,
        }

    def results(self, query_id: str) -> list:
        return self.engine.collector.results

    def refused(self) -> int:
        return 0

    def counters(self, events: list) -> Dict[str, float]:
        return {
            "scheduler_steps": self.context.cost.count("scheduler_step"),
            "boosts_granted": 0,
            "tee_deliveries": 0,
            "router_fanout": 0,
            "shared_subplans_active": 0,
            "backpressure_engagements": 0,
            **_jit_stats([self.plan]),
        }


@dataclass(frozen=True)
class ServingWorkload:
    """128 sub-clique queries over 4 shared streams, behind a ``StreamServer``."""

    name: str
    why: str
    events: int
    #: Strategy by registration index: "ref" for all, or "alternate" REF/JIT.
    strategies: str = "ref"
    share_subplans: bool = False
    scheduler: str = "fifo"
    shards: int = 1
    drain_mode: str = "sync"
    #: Events per wall-clock second of the ``--paced`` open-loop diagnostic.
    paced_rate: float = 0.0
    serving = True

    def generate(self, seed: int, smoke: bool = False) -> Inputs:
        events = self.events // SMOKE_SHRINK if smoke else self.events
        source = generate_multi_query_workload(
            n_queries=128, n_sources=4, rate=1.0, window_seconds=30.0, dmax=400,
            duration=events / 4, seed=seed,
        )
        return Inputs(events=source.events(), source=source)

    def registry(self, inputs: Inputs) -> QueryRegistry:
        registry = QueryRegistry()
        for index, query in enumerate(inputs.source.queries()):
            jit = self.strategies == "alternate" and index % 2 == 1
            registry.register(
                query, strategy=STRATEGY_JIT if jit else STRATEGY_REF, use_hash_index=True
            )
        return registry

    def build(self, inputs: Inputs, front=StreamServer) -> ServedSystem:
        return ServedSystem(self.registry(inputs), self, front)


@dataclass(frozen=True)
class PaperWorkload:
    """The paper's Table III left-deep default, JIT, synchronous, unserved."""

    name: str
    why: str
    scale: float
    duration_windows: float
    #: The oracle replays a smaller setting under both REF and JIT (REF at
    #: full scale takes minutes).
    oracle_scale: float = 0.3
    oracle_windows: float = 3.0
    serving = False
    drain_mode = "sync"

    def workload(self, seed: int, scale: float, windows: float):
        return scaled_workload(
            LEFT_DEEP_DEFAULTS, scale=scale, duration_windows=windows, seed=seed
        )

    def generate(self, seed: int, smoke: bool = False) -> Inputs:
        scale = self.scale / SMOKE_SHRINK if smoke else self.scale
        source = self.workload(seed, scale, self.duration_windows)
        return Inputs(events=source.events(), source=source)

    @staticmethod
    def plan(source, strategy: str = STRATEGY_JIT):
        return build_xjoin_plan(
            ContinuousQuery.from_workload(source),
            shape=PLAN_LEFT_DEEP,
            strategy=strategy,
            jit_config=JITConfig(retention_policy=RetentionPolicy.WINDOW),
        )

    def build(self, inputs: Inputs) -> PlanSystem:
        return PlanSystem(self.plan(inputs.source), inputs.source.window.length)


WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        ServingWorkload(
            name="clique128",
            why="all-REF unshared fifo sync: ~76 scheduler steps/event, so scheduler, "
            "drain loop, queues, state and accounting are the whole cost",
            events=2000,
            paced_rate=350.0,
        ),
        ServingWorkload(
            name="shared128",
            why="REF/JIT alternating, shared sub-plans, jit_aware: ~5 steps/event, so "
            "serve, router, tee and result sinks reach their largest share",
            events=12000,
            strategies="alternate",
            share_subplans=True,
            scheduler="jit_aware",
            paced_rate=2000.0,
        ),
        PaperWorkload(
            name="paper-leftdeep",
            why="Table III left-deep default at full scale under JIT: MNS detection, "
            "blacklist and lattice dominate; no serve, multi or scheduler",
            scale=1.0,
            duration_windows=3.0,
        ),
        ServingWorkload(
            name="process2",
            why="clique128's population on 2 process workers: the only workload where "
            "pickling, pipes and acks matter",
            events=2000,
            shards=2,
            drain_mode="process",
            paced_rate=500.0,
        ),
    )
}


def sync_twin(workload: ServingWorkload) -> Optional[ServingWorkload]:
    """The same population on one inline shard (``process2`` -> ``clique128``)."""
    if workload.drain_mode == "sync":
        return None
    return ServingWorkload(
        name=workload.name + "-sync", why="", events=workload.events,
        strategies=workload.strategies, share_subplans=workload.share_subplans,
        scheduler=workload.scheduler,
    )


def round_seed(seed: int, round_index: int) -> int:
    """The generator seed of one round: distinct inputs per round, same per seed."""
    return seed * 1000 + round_index
