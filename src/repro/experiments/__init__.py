"""Experiment harness: regenerate the paper's evaluation (Figures 10-17).

* :mod:`repro.experiments.config` -- the parameter grid of Table III and the
  scaling rules used to shrink the paper's 5-hour runs to laptop-sized ones.
* :mod:`repro.experiments.runner` -- run one workload under several execution
  strategies and collect comparable metrics.
* :mod:`repro.experiments.figures` -- one entry point per figure of the
  evaluation section (``figure10`` ... ``figure17``).
* :mod:`repro.experiments.reporting` -- plain-text tables for all of the
  above, as printed by ``benchmarks/bench_figures.py``, whose numbers are
  committed in ``benchmarks/BENCH_figures.json``.
"""

from repro.experiments.config import (
    BUSHY_DEFAULTS,
    LEFT_DEEP_DEFAULTS,
    TABLE_III,
    ExperimentSetting,
    scaled_workload,
)
from repro.experiments.runner import StrategyRun, SweepPoint, compare_strategies, sweep_parameter
from repro.experiments.figures import (
    FigureResult,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    all_figures,
)
from repro.experiments.reporting import format_figure, format_sweep_table

__all__ = [
    "BUSHY_DEFAULTS",
    "LEFT_DEEP_DEFAULTS",
    "TABLE_III",
    "ExperimentSetting",
    "scaled_workload",
    "StrategyRun",
    "SweepPoint",
    "compare_strategies",
    "sweep_parameter",
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
    "format_figure",
    "format_sweep_table",
]
