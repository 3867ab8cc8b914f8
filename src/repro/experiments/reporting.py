"""Plain-text reporting of reproduced figures and sweeps.

The benchmark harness prints, for every figure, the same rows the paper
plots: the swept parameter on the left, then one column per strategy and
metric.  The formatting is deliberately simple fixed-width text;
``benchmarks/bench_figures.py`` prints it and commits the same numbers to
``benchmarks/BENCH_figures.json``.  :func:`moved` names every number that
differs between two sets of committed records
(``benchmarks/BENCH_figures.json``, ``tests/golden.json``).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.experiments.figures import FigureResult
from repro.experiments.runner import SweepPoint
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF

__all__ = ["format_sweep_table", "format_figure", "moved"]


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def format_sweep_table(
    points: Sequence[SweepPoint],
    parameter_label: str,
    strategies: Sequence[str] = (STRATEGY_JIT, STRATEGY_REF),
) -> str:
    """Format one sweep as a fixed-width table with CPU and memory columns."""
    header = (
        f"{parameter_label:>12} | "
        + " | ".join(f"{s.upper()+' cpu':>14}" for s in strategies)
        + " | "
        + " | ".join(f"{s.upper()+' mem KB':>14}" for s in strategies)
        + " | speedup | mem saved"
    )
    lines = [header, "-" * len(header)]
    for point in points:
        cpu_cols = " | ".join(f"{_fmt(point.runs[s].cpu_units):>14}" for s in strategies)
        mem_cols = " | ".join(
            f"{_fmt(point.runs[s].peak_memory_kb):>14}" for s in strategies
        )
        speedup = point.ratio("cpu_units")
        ref_mem = point.runs[STRATEGY_REF].peak_memory_kb
        jit_mem = point.runs[STRATEGY_JIT].peak_memory_kb
        saved = (1 - jit_mem / ref_mem) * 100 if ref_mem else 0.0
        lines.append(
            f"{point.value:>12g} | {cpu_cols} | {mem_cols} | {speedup:>7.2f}x | {saved:>8.1f}%"
        )
    return "\n".join(lines)


def format_figure(result: FigureResult) -> str:
    """Format one reproduced figure (both panels) as a text block."""
    title = (
        f"{result.figure}: {result.title} "
        f"[plan={result.plan_shape}, scale={result.scale:g}]"
    )
    table = format_sweep_table(result.points, result.parameter_label)
    speedups = ", ".join(f"{s:.1f}x" for s in result.speedups())
    savings = ", ".join(f"{s * 100:.0f}%" for s in result.memory_savings())
    summary = (
        f"JIT vs REF CPU speedup per point: {speedups}\n"
        f"JIT memory saving per point:      {savings}"
    )
    return f"{title}\n{table}\n{summary}\n"


def _leaves(node, path: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], object]]:
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _leaves(child, path + (str(index),))
    else:
        yield path, node


def moved(before: dict, after: dict) -> List[str]:
    """One line per leaf that differs between two sets of committed records
    (nested dicts and lists, as JSON holds them), named by its path."""
    old, new = dict(_leaves(before)), dict(_leaves(after))
    return [
        f"{' '.join(path)}: {old.get(path, 'absent')} -> {new.get(path, 'absent')}"
        for path in sorted(old.keys() | new.keys())
        if old.get(path) != new.get(path)
    ]
