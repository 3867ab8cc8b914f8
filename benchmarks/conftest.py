"""Shared fixtures for the pytest-benchmark runs under ``benchmarks/``.

``bench_ablations.py`` sweeps the JIT ablations at a scale that can be
adjusted without editing code::

    REPRO_BENCH_SCALE=0.1 pytest benchmarks/bench_ablations.py --benchmark-only

Larger scales use longer windows (closer to the paper's setting) and make the
JIT-vs-REF gap wider, at the cost of longer runs.  The paper's figures run at
the one scale ``BENCH_figures.json`` is recorded at (``bench_figures.py``).
"""

from __future__ import annotations

import os
import pytest

#: Default window/duration scale for benchmark sweeps (fraction of the
#: paper's window lengths).
DEFAULT_SCALE = 0.06


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Scale factor for the ablation sweeps (override with REPRO_BENCH_SCALE)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))
