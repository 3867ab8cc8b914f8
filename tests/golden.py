"""The recorded runs behind the golden tests, and the tool that re-records them.

``golden.json`` pins, bit for bit, what three families of deterministic runs do:

* ``schedules`` — both scheduling policies (``fifo``, ``jit_aware``) on a
  single JIT plan queued on a one-query shard and on 1- and 2-shard
  engines, with and without shared sub-plans.  Each record is three parts
  so that a mismatch says *what* moved: ``schedule`` (sha256 over the
  per-shard pop order and the per-query result sequences: a scheduling
  decision or a result), ``cpu_units`` (a modelled cost) and ``steps`` (the
  scheduler-step count).
* ``paper`` — the paper's left-deep default (Table III; the end-to-end
  benchmark's recipe: seed 7, three windows, WINDOW retention) under JIT with
  every detection gate pinned open, the paper's always-detect algorithm:
  ``cpu_units``, peak memory bytes, the non-zero cost counters and the
  non-zero per-operator ``stats``.
* ``gates`` — the same plan at scale 0.3 on seeds 7 and 11, and an indexed
  clique over 16 windows, with live detection gates: every epoch each gate
  closed (``tests/helpers.py::GateEpoch``: its end, spent and avoided units,
  decision and rest), so a moved gate decision is named epoch by epoch.
* ``differential`` — nested-loop JIT plans with every gate pinned open:
  cliques of 2-4 sources, left-deep and bushy, synchronous and queued, two
  seeds, and the paper plan at scale 0.3 on seeds 3, 7 and 11.  Each record
  is the non-zero per-operator ``stats``, a sha256 over the result sequence,
  the peak memory bytes and ``cpu_units``, so "pinned open, nothing but units
  moved" is a ``--check`` that names ``cpu_units`` leaves only.

The tests (``test_scheduler_equivalence.py::TestGoldenSchedules``,
``test_detection_gate.py::TestGateOnThePaperPlan`` and ``::TestLiveGateRecords``,
``test_jit_core.py::TestPinnedOpenDifferential``) compare a fresh run with
the file.  After a change that is *meant* to move a cost::

    PYTHONPATH=src python -m tests.golden --check    # list what moved, exit 1 if anything did
    PYTHONPATH=src python -m tests.golden --record   # the same list, then rewrite golden.json

and the list goes into CHANGES.md: a cost-only change moves ``cpu_units`` (and
the cost counters it names) and leaves every ``schedule`` digest, ``steps``
and ``stats`` entry alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Dict, List

from repro.core.config import JITConfig, RetentionPolicy
from repro.core.jit_join import JITJoinOperator
from repro.engine import run_workload
from repro.engine.results import result_key
from repro.experiments.config import LEFT_DEEP_DEFAULTS, scaled_workload
from repro.experiments.reporting import moved
from repro.metrics import CostKind
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.scheduler import build_scheduler
from repro.streams.generators import generate_clique_workload

try:  # under pytest, tests/ itself is on sys.path
    from helpers import ScriptedGate, gate_epochs, record_pops, run_queued, script_gates
except ImportError:  # python -m tests.golden, from the repo root
    from tests.helpers import ScriptedGate, gate_epochs, record_pops, run_queued, script_gates

GOLDEN_FILE = Path(__file__).with_name("golden.json")

#: The scheduler policies ``build_scheduler`` knows; every suite that sweeps
#: policies imports this one tuple.
ALL_POLICIES = ("fifo", "jit_aware")

#: name -> (n_shards, share_subplans), run in the sync drain mode; "single"
#: is one plan queued on a one-query shard.
SHARDED_CONFIGS = {
    f"{n_shards}{'-shared' if share else ''}-sync": (n_shards, share)
    for n_shards in (1, 2)
    for share in (False, True)
}

PAPER_SCALES = (0.2, 0.3)


def load() -> dict:
    """The committed records."""
    return json.loads(GOLDEN_FILE.read_text())


# ------------------------------------------------------------------ schedules


def single_plan_run(scheduler, n_sources=4, rate=0.5, dmax=2, duration=60, seed=0):
    """(pops per shard, results per query, cpu_units, scheduler steps)."""
    workload = generate_clique_workload(
        n_sources=n_sources, rate=rate, window_seconds=20, dmax=dmax,
        duration=duration, seed=seed,
    )
    pops = []
    report = run_queued(
        ContinuousQuery.from_workload(workload),
        workload.events(),
        shape=PLAN_LEFT_DEEP,
        strategy=STRATEGY_JIT,
        scheduler=lambda: record_pops(scheduler, pops),
    )
    steps = report.metrics.counters.get(CostKind.SCHEDULER_STEP, 0)
    return [pops], {"q": list(report.results.results)}, report.cpu_units, steps


def sharded_run(make_scheduler, n_shards, share):
    workload = generate_multi_query_workload(
        n_queries=12, n_sources=4, rate=0.8, window_seconds=20, dmax=4,
        duration=60, seed=3,
    )
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF)
    pops = []

    def factory():
        # Shards build their schedulers in shard order.
        pops.append([])
        return record_pops(make_scheduler(), pops[-1])

    with ShardedEngine(
        registry,
        n_shards=n_shards,
        scheduler=factory,
        share_subplans=share,
    ) as engine:
        report = engine.run(workload.events())
        results = {qid: list(engine.results_for(qid).results) for qid in registry.ids}
        steps = sum(
            shard.cost.counters.get(CostKind.SCHEDULER_STEP, 0) for shard in engine.shards
        )
    return pops, results, report.cpu_units, steps


def run(make_scheduler, config):
    if config == "single":
        return single_plan_run(make_scheduler())
    return sharded_run(make_scheduler, *SHARDED_CONFIGS[config])


def digest(lines: List[str], results: Dict[str, list]) -> str:
    """A sha256 over ``lines`` and the per-query result sequences, as a
    canonical text (no ``hash()``, no set order: ints, source names and
    ``repr`` of floats only)."""
    lines = list(lines)
    for query_id, tuples in results.items():
        lines.append(f"results {query_id}:")
        for tup in tuples:
            components, ts = result_key(tup)
            lines.append(" ".join(f"{src}#{seq}" for src, seq in components) + f" @{ts!r}")
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def schedule_record(recorded) -> dict:
    """The three parts of one recorded run.  ``schedule`` digests the pops
    and the result sequences."""
    pops, results, cpu_units, steps = recorded
    pop_lines = [f"pops {shard}: {' '.join(map(str, orders))}" for shard, orders in enumerate(pops)]
    return {
        "schedule": digest(pop_lines, results),
        "cpu_units": cpu_units,
        "steps": steps,
    }


def schedule_key(policy: str, config: str) -> str:
    """The record a (policy, config) run must reproduce: the config's
    ``-sync`` suffix is not part of it."""
    return f"{policy}/{config.rsplit('-', 1)[0]}"


# ------------------------------------------------------------------ the paper plan


def jit_operators(plan) -> List[JITJoinOperator]:
    return [op for op in plan.join_operators if isinstance(op, JITJoinOperator)]


def jit_stats(plan) -> dict:
    """The non-zero ``stats`` of every JIT operator of ``plan``."""
    return {op.name: {k: v for k, v in op.stats.items() if v} for op in jit_operators(plan)}


def paper_setup(scale: float, seed: int = 7):
    """The paper's left-deep default under JIT at ``scale``: (plan, events, window)."""
    workload = scaled_workload(LEFT_DEEP_DEFAULTS, scale=scale, duration_windows=3.0, seed=seed)
    plan = build_xjoin_plan(
        ContinuousQuery.from_workload(workload), shape=PLAN_LEFT_DEEP,
        strategy=STRATEGY_JIT,
        jit_config=JITConfig(retention_policy=RetentionPolicy.WINDOW),
    )
    return plan, workload.events(), workload.window.length


def run_setup(setup, gates=None):
    """Run a (plan, events, window) synchronously, its gates scripted by
    ``gates`` if given: (report, plan)."""
    plan, events, window = setup
    if gates is not None:
        script_gates(plan, gates)
    return run_workload(plan, events, window), plan


def paper_run(scale: float, gates=None, seed: int = 7):
    """The paper's left-deep default under JIT at ``scale``: (report, plan)."""
    return run_setup(paper_setup(scale, seed), gates)


def paper_record(scale: float) -> dict:
    """What the pinned-open run at ``scale`` charged, held and decided."""
    report, plan = paper_run(scale, gates=ScriptedGate)
    return {
        "cpu_units": report.metrics.cpu_units,
        "peak_memory_bytes": report.metrics.peak_memory_bytes,
        "counters": {k: v for k, v in report.metrics.counters.items() if v},
        "stats": jit_stats(plan),
    }


# ------------------------------------------------------------------ live gates

#: The indexed clique's window, in seconds (30 tuples per source at rate 1).
INDEXED_CLIQUE_WINDOW = 30.0


def indexed_clique_setup(windows: int, strategy=STRATEGY_JIT):
    """Three sources, 30-tuple windows, hash indexes, ``windows`` windows
    long — a population where detection cannot pay: (plan, events, window)."""
    workload = generate_clique_workload(
        n_sources=3, rate=1.0, window_seconds=INDEXED_CLIQUE_WINDOW, dmax=400,
        duration=windows * INDEXED_CLIQUE_WINDOW, seed=5,
    )
    plan = build_xjoin_plan(
        ContinuousQuery.from_workload(workload), shape=PLAN_LEFT_DEEP,
        strategy=strategy, use_hash_index=True,
    )
    return plan, workload.events(), INDEXED_CLIQUE_WINDOW


#: The live-gate runs whose every epoch is recorded: name -> fresh setup.
GATE_RUNS = {
    "paper-0.3-seed7": lambda: paper_setup(0.3, seed=7),
    "paper-0.3-seed11": lambda: paper_setup(0.3, seed=11),
    "indexed-clique-16": lambda: indexed_clique_setup(16),
}


def gate_record(name: str) -> dict:
    """Every epoch each live gate of run ``name`` closed, per ``Op.port``."""
    with gate_epochs() as log:
        _report, plan = run_setup(GATE_RUNS[name]())
    return {
        f"{op.name}.{port}": [asdict(epoch) for epoch in log[gate]]
        for op in jit_operators(plan)
        for port, gate in op.gates.items()
        if gate in log
    }


# ------------------------------------------------------------------ the differential


def clique_run(n_sources: int, shape: str, seed: int, queued: bool):
    """A nested-loop JIT clique over four 30-tuple windows, every gate pinned
    open, pushed synchronously or queued on a one-query shard: (report, plan)."""
    workload = generate_clique_workload(
        n_sources=n_sources, rate=1.0, window_seconds=30, dmax=8, duration=120, seed=seed,
    )
    query = ContinuousQuery.from_workload(workload)
    if not queued:
        plan = build_xjoin_plan(query, shape=shape, strategy=STRATEGY_JIT)
        return run_setup((plan, workload.events(), query.window.length), gates=ScriptedGate)
    hosted = []

    def prepare(plan):
        script_gates(plan, ScriptedGate)
        hosted.append(plan)

    report = run_queued(query, workload.events(), shape=shape, prepare=prepare)
    return report, hosted[0]


#: The pinned-open nested-loop runs: name -> a fresh run, (report, plan).
DIFFERENTIAL_RUNS = {
    **{
        f"clique-{n_sources}-{shape}-{setting}-seed{seed}": partial(
            clique_run, n_sources, shape, seed, setting == "queued"
        )
        for n_sources in (2, 3, 4)
        for shape in (PLAN_LEFT_DEEP, PLAN_BUSHY)
        for setting in ("synchronous", "queued")
        for seed in (1, 2)
    },
    **{
        f"paper-0.3-seed{seed}": partial(paper_run, 0.3, ScriptedGate, seed)
        for seed in (3, 7, 11)
    },
}


def differential_record(name: str) -> dict:
    """What the pinned-open run ``name`` decided, emitted, held and cost."""
    report, plan = DIFFERENTIAL_RUNS[name]()
    return {
        "stats": jit_stats(plan),
        "results": digest([], {"q": report.results.results}),
        "peak_memory_bytes": report.metrics.peak_memory_bytes,
        "cpu_units": report.metrics.cpu_units,
    }


# ------------------------------------------------------------------ the tool


def record_all() -> dict:
    return {
        "schedules": {
            schedule_key(policy, config): schedule_record(
                run(lambda: build_scheduler(policy), config)
            )
            for policy in ALL_POLICIES
            for config in ("single",) + tuple(SHARDED_CONFIGS)
        },
        "paper": {str(scale): paper_record(scale) for scale in PAPER_SCALES},
        "gates": {name: gate_record(name) for name in GATE_RUNS},
        "differential": {name: differential_record(name) for name in DIFFERENTIAL_RUNS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="list what moved; exit 1 if anything did")
    action.add_argument("--record", action="store_true", help="list what moved, then rewrite golden.json")
    args = parser.parse_args(argv)
    before = load() if GOLDEN_FILE.exists() else {}
    after = record_all()
    lines = moved(before, after)
    print("\n".join(lines) if lines else "nothing moved")
    if args.record:
        GOLDEN_FILE.write_text(json.dumps(after, indent=1, sort_keys=True) + "\n")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
