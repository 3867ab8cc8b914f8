"""Experiment settings: Table II/III parameters and scaling rules.

The paper's evaluation (Section VI) runs every configuration for 5 hours of
application time on a clique-join workload.  Replaying 5 hours through a
pure-Python nested-loop engine is neither necessary nor useful — the metrics
are modelled operation counts, so the comparison is meaningful at any scale —
therefore every experiment accepts a ``scale`` factor that multiplies the
window length (and derives the run duration from the scaled window), while
keeping the paper's arrival rates, source counts and value domains untouched.
``benchmarks/bench_figures.py`` sets the scale of the committed numbers, and
``benchmarks/BENCH_figures.json`` records it beside them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.streams.generators import CliqueJoinWorkload, source_names
from repro.streams.time import Window, minutes

__all__ = [
    "ExperimentSetting",
    "BUSHY_DEFAULTS",
    "LEFT_DEEP_DEFAULTS",
    "TABLE_III",
    "scaled_workload",
]


@dataclass(frozen=True)
class ExperimentSetting:
    """One point of the paper's parameter space.

    Parameters mirror Table III: window length in minutes, per-source arrival
    rate λ (tuples/second), number of sources N and maximum column value
    ``dmax``.  ``boost_last_source`` reproduces the left-deep experiments'
    rule of feeding the last source with values from ``[1 .. 100·dmax]``.
    """

    window_minutes: float
    rate: float
    n_sources: int
    dmax: int
    boost_last_source: bool = False
    seed: int = 20080415

    def with_overrides(self, **overrides: object) -> "ExperimentSetting":
        """Return a copy with some fields replaced (used by the sweeps)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


#: Defaults of the bushy-plan experiments (Table III, bold values).
BUSHY_DEFAULTS = ExperimentSetting(window_minutes=20, rate=1.0, n_sources=6, dmax=200)

#: Defaults of the left-deep experiments (Table III, bold values).
LEFT_DEEP_DEFAULTS = ExperimentSetting(
    window_minutes=10, rate=1.0, n_sources=4, dmax=50, boost_last_source=True
)

#: The full parameter ranges of Table III, keyed by (plan family, parameter).
TABLE_III: Dict[Tuple[str, str], Tuple[float, ...]] = {
    ("bushy", "window_minutes"): (10, 15, 20, 25, 30),
    ("bushy", "rate"): (0.4, 0.7, 1.0, 1.3, 1.6),
    ("bushy", "n_sources"): (4, 5, 6, 7, 8),
    ("bushy", "dmax"): (100, 150, 200, 250, 300),
    ("left_deep", "window_minutes"): (5, 7.5, 10, 12.5, 15),
    ("left_deep", "rate"): (0.4, 0.7, 1.0, 1.3, 1.6),
    ("left_deep", "n_sources"): (3, 4, 5, 6),
    ("left_deep", "dmax"): (30, 40, 50, 60, 70),
}


def scaled_workload(
    setting: ExperimentSetting,
    scale: float = 0.1,
    duration_windows: float = 3.0,
    seed: Optional[int] = None,
) -> CliqueJoinWorkload:
    """Build the synthetic workload for ``setting`` at the given scale.

    Parameters
    ----------
    setting:
        The experiment point (window, rate, N, dmax).
    scale:
        Multiplier applied to the paper's window length.  ``1.0`` uses the
        paper's windows verbatim; the default ``0.1`` keeps every benchmark
        in the seconds range while preserving all qualitative trends.
    duration_windows:
        Run length expressed in multiples of the *scaled* window, so the run
        always covers several full window turnovers (steady state).
    seed:
        Override for the workload seed (defaults to the setting's seed).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if duration_windows <= 1:
        raise ValueError(f"duration_windows must exceed 1, got {duration_windows}")
    window_seconds = minutes(setting.window_minutes) * scale
    duration = max(window_seconds * duration_windows, 60.0)
    overrides: Dict[str, int] = {}
    if setting.boost_last_source:
        last = source_names(setting.n_sources)[-1]
        overrides[last] = 100 * setting.dmax
    return CliqueJoinWorkload(
        n_sources=setting.n_sources,
        rate=setting.rate,
        window=Window(window_seconds),
        dmax=setting.dmax,
        duration=duration,
        seed=setting.seed if seed is None else seed,
        value_range_overrides=overrides,
    )
