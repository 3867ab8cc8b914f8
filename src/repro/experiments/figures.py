"""Regeneration of the paper's evaluation figures (Figures 10-17).

Each ``figureNN`` function reproduces one figure of Section VI: it sweeps the
figure's parameter over the Table III range, runs JIT and REF on the same
workload, and returns both panels — total CPU cost (panel a) and peak memory
(panel b) — as series per strategy.  ``benchmarks/bench_figures.py`` calls
these functions, prints the resulting tables and checks them bit for bit
against the numbers committed in ``benchmarks/BENCH_figures.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import JITConfig, RetentionPolicy
from repro.experiments.config import BUSHY_DEFAULTS, LEFT_DEEP_DEFAULTS, TABLE_III, ExperimentSetting
from repro.experiments.runner import SweepPoint, sweep_parameter
from repro.plans.builder import PLAN_BUSHY, PLAN_LEFT_DEEP, STRATEGY_JIT, STRATEGY_REF

__all__ = [
    "FigureResult",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "all_figures",
]


@dataclass(frozen=True)
class FigureResult:
    """The data behind one reproduced figure (both panels)."""

    figure: str
    title: str
    plan_shape: str
    parameter: str
    parameter_label: str
    points: Tuple[SweepPoint, ...]
    scale: float

    @property
    def values(self) -> List[float]:
        """The swept parameter values (x axis)."""
        return [p.value for p in self.points]

    def series(self, metric: str, strategy: str) -> List[float]:
        """One curve: ``metric`` (``cpu_units`` / ``peak_memory_kb``) for ``strategy``."""
        return [getattr(p.runs[strategy], metric) for p in self.points]

    def speedups(self) -> List[float]:
        """REF/JIT CPU ratio at each point (the paper's headline comparison)."""
        return [p.ratio("cpu_units") for p in self.points]

    def memory_savings(self) -> List[float]:
        """Relative memory saved by JIT at each point (1 - JIT/REF)."""
        out = []
        for p in self.points:
            ref = p.runs[STRATEGY_REF].peak_memory_kb
            jit = p.runs[STRATEGY_JIT].peak_memory_kb
            out.append(1.0 - (jit / ref) if ref else 0.0)
        return out


def _figure(
    figure: str,
    title: str,
    base: ExperimentSetting,
    plan_family: str,
    parameter: str,
    parameter_label: str,
    scale: float,
    seed: Optional[int],
    values: Optional[Sequence[float]] = None,
) -> FigureResult:
    shape = PLAN_BUSHY if plan_family == "bushy" else PLAN_LEFT_DEEP
    swept = tuple(values if values is not None else TABLE_III[(plan_family, parameter)])
    points = sweep_parameter(
        base,
        parameter,
        swept,
        shape=shape,
        strategies=(STRATEGY_REF, STRATEGY_JIT),
        scale=scale,
        seed=seed,
        # The performance sweeps use the paper's literal retention policy
        # (suspended tuples expire with the window); the EXACT policy exists
        # for the equivalence tests and is slightly more memory-hungry.
        jit_config=JITConfig(retention_policy=RetentionPolicy.WINDOW),
    )
    return FigureResult(
        figure=figure,
        title=title,
        plan_shape=shape,
        parameter=parameter,
        parameter_label=parameter_label,
        points=tuple(points),
        scale=scale,
    )


def figure10(scale: float = 0.1, seed: Optional[int] = None,
             values: Optional[Sequence[float]] = None) -> FigureResult:
    """Figure 10: overhead vs. window size w (bushy plan)."""
    return _figure("Figure 10", "Overhead vs window size w (bushy plan)",
                   BUSHY_DEFAULTS, "bushy", "window_minutes", "w (mins)", scale, seed, values)


def figure11(scale: float = 0.1, seed: Optional[int] = None,
             values: Optional[Sequence[float]] = None) -> FigureResult:
    """Figure 11: overhead vs. stream rate λ (bushy plan)."""
    return _figure("Figure 11", "Overhead vs stream rate λ (bushy plan)",
                   BUSHY_DEFAULTS, "bushy", "rate", "λ (tuples/sec)", scale, seed, values)


def figure12(scale: float = 0.1, seed: Optional[int] = None,
             values: Optional[Sequence[float]] = None) -> FigureResult:
    """Figure 12: overhead vs. number of sources N (bushy plan)."""
    return _figure("Figure 12", "Overhead vs number of sources N (bushy plan)",
                   BUSHY_DEFAULTS, "bushy", "n_sources", "N", scale, seed, values)


def figure13(scale: float = 0.1, seed: Optional[int] = None,
             values: Optional[Sequence[float]] = None) -> FigureResult:
    """Figure 13: overhead vs. maximum data value dmax (bushy plan)."""
    return _figure("Figure 13", "Overhead vs max data value dmax (bushy plan)",
                   BUSHY_DEFAULTS, "bushy", "dmax", "dmax", scale, seed, values)


def figure14(scale: float = 0.1, seed: Optional[int] = None,
             values: Optional[Sequence[float]] = None) -> FigureResult:
    """Figure 14: overhead vs. window size w (left-deep plan)."""
    return _figure("Figure 14", "Overhead vs window size w (left-deep plan)",
                   LEFT_DEEP_DEFAULTS, "left_deep", "window_minutes", "w (mins)", scale, seed, values)


def figure15(scale: float = 0.1, seed: Optional[int] = None,
             values: Optional[Sequence[float]] = None) -> FigureResult:
    """Figure 15: overhead vs. stream rate λ (left-deep plan)."""
    return _figure("Figure 15", "Overhead vs stream rate λ (left-deep plan)",
                   LEFT_DEEP_DEFAULTS, "left_deep", "rate", "λ (tuples/sec)", scale, seed, values)


def figure16(scale: float = 0.1, seed: Optional[int] = None,
             values: Optional[Sequence[float]] = None) -> FigureResult:
    """Figure 16: overhead vs. number of sources N (left-deep plan)."""
    return _figure("Figure 16", "Overhead vs number of sources N (left-deep plan)",
                   LEFT_DEEP_DEFAULTS, "left_deep", "n_sources", "N", scale, seed, values)


def figure17(scale: float = 0.1, seed: Optional[int] = None,
             values: Optional[Sequence[float]] = None) -> FigureResult:
    """Figure 17: overhead vs. maximum data value dmax (left-deep plan)."""
    return _figure("Figure 17", "Overhead vs max data value dmax (left-deep plan)",
                   LEFT_DEEP_DEFAULTS, "left_deep", "dmax", "dmax", scale, seed, values)


#: All figure generators keyed by figure number, in paper order.
_ALL: Dict[str, Callable[..., FigureResult]] = {
    "10": figure10,
    "11": figure11,
    "12": figure12,
    "13": figure13,
    "14": figure14,
    "15": figure15,
    "16": figure16,
    "17": figure17,
}


def all_figures(scale: float = 0.1, seed: Optional[int] = None) -> List[FigureResult]:
    """Regenerate every figure of the evaluation section."""
    return [generator(scale=scale, seed=seed) for generator in _ALL.values()]
