"""Ablation benchmarks beyond the paper's figures.

These quantify design choices the paper leaves open (the detection modes
are described in ``docs/JIT.md``):

* MNS detection mode (full lattice vs Ø-only, i.e. DOE),
* plan style (X-Join tree vs M-Join vs Eddy) for the same query, and
* execution mode / operator-scheduling policy (Section III-B).
"""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    detection_mode_ablation,
    plan_style_ablation,
    scheduler_ablation,
)
from repro.experiments.config import BUSHY_DEFAULTS, LEFT_DEEP_DEFAULTS


def _print_runs(title, runs):
    print()
    print(title)
    for label, run in sorted(runs.items()):
        print(
            f"  {label:<18} cpu={run.cpu_units:>14,.0f}  mem={run.peak_memory_kb:>10.1f} KB  "
            f"results={run.result_count}"
        )


def test_detection_mode_ablation(benchmark, bench_scale):
    """Compare lattice and Ø-only (DOE) detection against REF."""
    setting = BUSHY_DEFAULTS.with_overrides(n_sources=4)
    runs = benchmark.pedantic(
        lambda: detection_mode_ablation(setting, scale=bench_scale), rounds=1, iterations=1
    )
    _print_runs("Detection-mode ablation (bushy N=4)", runs)
    assert runs["jit/lattice"].cpu_units <= runs["ref"].cpu_units


def test_plan_style_ablation(benchmark, bench_scale):
    """Compare X-Join, M-Join and Eddy execution of the same clique query."""
    setting = LEFT_DEEP_DEFAULTS.with_overrides(n_sources=3)
    runs = benchmark.pedantic(
        lambda: plan_style_ablation(setting, scale=bench_scale), rounds=1, iterations=1
    )
    _print_runs("Plan-style ablation (N=3)", runs)
    # Section II's qualitative claim: M-Join stores no intermediate results,
    # so it needs no more state memory than the X-Join tree.
    assert runs["mjoin"].peak_memory_kb <= runs["xjoin/ref"].peak_memory_kb * 1.05


def test_scheduler_ablation(benchmark, bench_scale):
    """Compare synchronous execution with queued execution under each policy."""
    setting = LEFT_DEEP_DEFAULTS.with_overrides(n_sources=3)
    runs = benchmark.pedantic(
        lambda: scheduler_ablation(setting, scale=bench_scale), rounds=1, iterations=1
    )
    _print_runs("Scheduler ablation (left-deep N=3, JIT)", runs)
    assert runs["synchronous"].result_count == runs["queued/fifo"].result_count
