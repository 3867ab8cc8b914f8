"""Ablation experiments not present in the paper.

These sweeps quantify design choices the paper leaves open (the detection
modes are described in ``docs/JIT.md``):

* :func:`detection_mode_ablation` — full CNS-lattice detection vs Ø-only
  detection (= the DOE baseline) vs no detection (= REF), on the same
  workload.
* :func:`plan_style_ablation` — X-Join vs M-Join vs Eddy execution of the
  same query (the CPU/memory trade-off discussed in Section II).
* :func:`scheduler_ablation` — synchronous execution vs queued execution
  under the different operator-scheduling policies of Section III-B.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.config import DetectionMode, JITConfig
from repro.engine.engine import ExecutionMode, run_workload
from repro.experiments.config import ExperimentSetting, scaled_workload
from repro.experiments.runner import StrategyRun
from repro.plans.builder import (
    PLAN_BUSHY,
    STRATEGY_JIT,
    STRATEGY_REF,
    build_eddy_plan,
    build_mjoin_plan,
    build_xjoin_plan,
)
from repro.plans.query import ContinuousQuery
from repro.scheduler import build_scheduler

__all__ = ["detection_mode_ablation", "plan_style_ablation", "scheduler_ablation"]


def detection_mode_ablation(
    setting: ExperimentSetting,
    shape: str = PLAN_BUSHY,
    scale: float = 0.1,
) -> Dict[str, StrategyRun]:
    """Compare MNS-detection modes on one workload.

    Returns one :class:`StrategyRun` per label: ``ref``, ``jit/lattice``,
    ``jit/empty_only`` (DOE).
    """
    workload = scaled_workload(setting, scale=scale)
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    runs: Dict[str, StrategyRun] = {}

    ref_plan = build_xjoin_plan(query, shape=shape, strategy=STRATEGY_REF)
    report = run_workload(ref_plan, events, workload.window.length, keep_results=False)
    runs["ref"] = StrategyRun.from_report("ref", report)

    for mode in (DetectionMode.LATTICE, DetectionMode.EMPTY_ONLY):
        config = JITConfig(detection_mode=mode)
        plan = build_xjoin_plan(query, shape=shape, strategy=STRATEGY_JIT, jit_config=config)
        report = run_workload(plan, events, workload.window.length, keep_results=False)
        runs[f"jit/{mode}"] = StrategyRun.from_report(f"jit/{mode}", report)
    return runs


def plan_style_ablation(
    setting: ExperimentSetting,
    scale: float = 0.1,
) -> Dict[str, StrategyRun]:
    """Compare the X-Join tree, M-Join and Eddy execution of the same query."""
    workload = scaled_workload(setting, scale=scale)
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    runs: Dict[str, StrategyRun] = {}
    plans = {
        "xjoin/ref": build_xjoin_plan(query, shape=PLAN_BUSHY, strategy=STRATEGY_REF),
        "xjoin/jit": build_xjoin_plan(query, shape=PLAN_BUSHY, strategy=STRATEGY_JIT),
        "mjoin": build_mjoin_plan(query),
        "eddy": build_eddy_plan(query),
    }
    for label, plan in plans.items():
        report = run_workload(plan, events, workload.window.length, keep_results=False)
        runs[label] = StrategyRun.from_report(label, report)
    return runs


def scheduler_ablation(
    setting: ExperimentSetting,
    shape: str = PLAN_BUSHY,
    scale: float = 0.1,
    policies: Sequence[str] = ("fifo", "round_robin", "priority", "jit_aware"),
) -> Dict[str, StrategyRun]:
    """Compare synchronous execution with queued execution under each policy."""
    workload = scaled_workload(setting, scale=scale)
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    runs: Dict[str, StrategyRun] = {}

    plan = build_xjoin_plan(query, shape=shape, strategy=STRATEGY_JIT)
    report = run_workload(plan, events, workload.window.length, keep_results=False)
    runs["synchronous"] = StrategyRun.from_report("synchronous", report)

    for policy in policies:
        plan = build_xjoin_plan(query, shape=shape, strategy=STRATEGY_JIT)
        report = run_workload(
            plan,
            events,
            workload.window.length,
            mode=ExecutionMode.QUEUED,
            scheduler=build_scheduler(policy),
            keep_results=False,
        )
        runs[f"queued/{policy}"] = StrategyRun.from_report(f"queued/{policy}", report)
    return runs
