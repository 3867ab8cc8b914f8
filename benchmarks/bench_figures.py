"""The paper's evaluation figures (Figures 10-17) as committed numbers.

Each figure sweeps one Table III parameter over its range and runs REF and
JIT on the same workload (``repro.experiments.figures``).  Both panels are
modelled, so every point repeats to the bit: ``BENCH_figures.json`` holds,
per figure, the swept values, REF's and JIT's ``cpu_units`` (panel a) and
``peak_memory_kb`` (panel b), REF/JIT ``cpu_units`` and both result counts,
at one stated scale (``SCALE``, a fraction of the paper's windows)::

    PYTHONPATH=src python benchmarks/bench_figures.py            # print the tables
    PYTHONPATH=src python benchmarks/bench_figures.py --check    # list what moved; exit 1 if anything did
    PYTHONPATH=src python benchmarks/bench_figures.py --record   # the same list, then rewrite the file
    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py  # one bit-exact test per figure

A change that is meant to move the figures re-records the file and lists
the moved points in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments import figures
from repro.experiments.figures import FigureResult
from repro.experiments.reporting import format_figure, moved
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF

BENCH_FILE = Path(__file__).with_name("BENCH_figures.json")

#: The committed scale: the figure benchmarks' default, about 6 s for all eight.
SCALE = 0.06

FIGURES = tuple(str(number) for number in range(10, 18))


def figure_record(result: FigureResult) -> dict:
    """One figure's committed numbers."""
    return {
        "title": result.title,
        "plan": result.plan_shape,
        "parameter": result.parameter,
        "values": result.values,
        **{
            strategy: {
                "cpu_units": result.series("cpu_units", strategy),
                "peak_memory_kb": result.series("peak_memory_kb", strategy),
                "results": result.series("result_count", strategy),
            }
            for strategy in (STRATEGY_REF, STRATEGY_JIT)
        },
        "ref_over_jit_cpu_units": result.speedups(),
    }


def run_figure(number: str) -> FigureResult:
    return getattr(figures, f"figure{number}")(scale=SCALE)


def record_all(show: bool = False) -> dict:
    records = {}
    for number in FIGURES:
        result = run_figure(number)
        if show:
            print(format_figure(result))
        records[f"figure{number}"] = figure_record(result)
    return {"scale": SCALE, "figures": records}


def load() -> Dict[str, object]:
    return json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {}


@pytest.mark.parametrize("number", FIGURES)
def test_figure(number):
    """Figure ``number`` reproduces its committed points bit for bit."""
    committed = load()
    assert committed.get("scale") == SCALE
    result = run_figure(number)
    print()
    print(format_figure(result))
    lines = moved(committed["figures"][f"figure{number}"], figure_record(result))
    assert not lines, "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--check", action="store_true", help="list what moved; exit 1 if anything did")
    action.add_argument("--record", action="store_true", help="list what moved, then rewrite the file")
    args = parser.parse_args(argv)
    if not (args.check or args.record):
        record_all(show=True)
        return 0
    after = record_all()
    lines = moved(load(), after)
    print("\n".join(lines) if lines else "nothing moved")
    if args.record:
        BENCH_FILE.write_text(json.dumps(after, indent=1) + "\n")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
