"""Run workloads under several execution strategies and collect metrics.

The paper executes every plan "twice, each time for 5 hours application time,
with and without JIT" and compares total CPU time and peak memory
consumption.  :func:`compare_strategies` does the same (optionally adding the
DOE baseline), and :func:`sweep_parameter` repeats the comparison across one
Table III parameter range — the building block of every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import JITConfig
from repro.engine.engine import ExecutionMode, RunReport, run_workload
from repro.engine.results import result_multiset
from repro.experiments.config import ExperimentSetting, scaled_workload
from repro.plans.builder import STRATEGY_DOE, STRATEGY_JIT, STRATEGY_REF, build_xjoin_plan
from repro.plans.query import ContinuousQuery
from repro.streams.generators import CliqueJoinWorkload

__all__ = ["StrategyRun", "SweepPoint", "compare_strategies", "sweep_parameter"]


@dataclass(frozen=True)
class StrategyRun:
    """Metrics of one strategy on one workload."""

    strategy: str
    cpu_units: float
    peak_memory_kb: float
    wall_seconds: float
    result_count: int
    events: int
    #: Primitive-operation counts per ``CostKind``.
    counters: Mapping[str, int]

    @classmethod
    def from_report(cls, strategy: str, report: RunReport) -> "StrategyRun":
        return cls(
            strategy=strategy,
            cpu_units=report.cpu_units,
            peak_memory_kb=report.peak_memory_kb,
            wall_seconds=report.metrics.wall_seconds,
            result_count=report.result_count,
            events=report.events_processed,
            counters=dict(report.metrics.counters),
        )


@dataclass(frozen=True)
class SweepPoint:
    """All strategy runs for one value of the swept parameter."""

    parameter: str
    value: float
    runs: Mapping[str, StrategyRun]

    def ratio(self, metric: str, baseline: str = STRATEGY_REF, other: str = STRATEGY_JIT) -> float:
        """Baseline/other ratio for ``metric`` (``cpu_units`` or ``peak_memory_kb``)."""
        base = getattr(self.runs[baseline], metric)
        val = getattr(self.runs[other], metric)
        return base / val if val else float("inf")


def compare_strategies(
    workload: CliqueJoinWorkload,
    shape: str,
    strategies: Sequence[str] = (STRATEGY_REF, STRATEGY_JIT),
    jit_config: Optional[JITConfig] = None,
    keep_results: bool = False,
    check_equivalence: bool = False,
    mode: str = ExecutionMode.SYNCHRONOUS,
) -> Dict[str, StrategyRun]:
    """Run one workload under each strategy over the same event sequence.

    When ``check_equivalence`` is True the result multisets of every strategy
    are compared and a mismatch raises ``AssertionError`` — used by the
    integration tests, left off in benchmarks to keep memory flat.
    """
    query = ContinuousQuery.from_workload(workload)
    events = workload.events()
    runs: Dict[str, StrategyRun] = {}
    multisets = {}
    for strategy in strategies:
        plan = build_xjoin_plan(query, shape=shape, strategy=strategy, jit_config=jit_config)
        report = run_workload(
            plan,
            events,
            window_length=workload.window.length,
            mode=mode,
            keep_results=keep_results or check_equivalence,
        )
        runs[strategy] = StrategyRun.from_report(strategy, report)
        if check_equivalence:
            multisets[strategy] = result_multiset(report.results.results)
    if check_equivalence and len(multisets) > 1:
        baseline_name, baseline = next(iter(multisets.items()))
        for name, multiset in multisets.items():
            if multiset != baseline:
                raise AssertionError(
                    f"strategy {name!r} produced different results than {baseline_name!r}"
                )
    return runs


def sweep_parameter(
    base: ExperimentSetting,
    parameter: str,
    values: Sequence[float],
    shape: str,
    strategies: Sequence[str] = (STRATEGY_REF, STRATEGY_JIT),
    scale: float = 0.1,
    jit_config: Optional[JITConfig] = None,
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """Sweep one Table III parameter and compare strategies at each value.

    ``parameter`` is the :class:`ExperimentSetting` field name
    (``"window_minutes"``, ``"rate"``, ``"n_sources"`` or ``"dmax"``).
    """
    points: List[SweepPoint] = []
    for value in values:
        setting = base.with_overrides(**{parameter: int(value) if parameter in ("n_sources", "dmax") else value})
        workload = scaled_workload(setting, scale=scale, seed=seed)
        runs = compare_strategies(
            workload, shape=shape, strategies=strategies, jit_config=jit_config
        )
        points.append(SweepPoint(parameter=parameter, value=value, runs=runs))
    return points
