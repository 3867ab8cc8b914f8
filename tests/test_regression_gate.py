"""The nightly regression gate matches its committed baselines.

``benchmarks/check_regression.py`` compares fresh ``bench_throughput.py``
runs with the ``BENCH_*.json`` files beside it, but it runs only at night.
This test reads its ``CHECKS`` table against the committed files, so a
suite, a baseline or a JSON path that went stale fails here instead.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_gate():
    # The module puts benchmarks/ and src/ on sys.path when imported; keep
    # that out of the rest of the session.
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "check_regression", BENCH_DIR / "check_regression.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_check_resolves_in_its_committed_baseline():
    gate = _load_gate()
    assert sorted(gate.CHECKS) == ["health", "serve", "trace"]
    for suite, spec in gate.CHECKS.items():
        path = BENCH_DIR / spec["baseline"]
        assert path.is_file(), f"{suite}: no baseline at {path}"
        baseline = json.loads(path.read_text())
        paths = [ratio[0] for ratio in spec["ratios"]] + spec["flags"] + spec["equal"]
        for key in paths:
            try:
                gate._lookup(baseline, key)
            except (KeyError, IndexError, ValueError, TypeError) as exc:
                raise AssertionError(f"{suite}: {key} not in {path.name}") from exc
