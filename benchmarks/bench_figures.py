"""The paper's evaluation figures (Figures 10-17) as committed numbers.

Each figure sweeps one Table III parameter over its range and runs REF and
JIT on the same workload (``repro.experiments.figures``).  Both panels are
modelled, so every point repeats to the bit: ``BENCH_figures.json`` holds,
per figure, the swept values, REF's and JIT's ``cpu_units`` (panel a) and
``peak_memory_kb`` (panel b), REF/JIT ``cpu_units``, both result counts
and each run's primitive-operation counts per ``CostKind`` (``counters``),
at one stated scale (``SCALE``, a fraction of the paper's windows).
Printing the tables also re-weights those counts with each of the eleven
weights at ×¼ and at ×4 (``weight_grid``) and names every point where
panel (a)'s REF-vs-JIT direction flips::

    PYTHONPATH=src python benchmarks/bench_figures.py            # print the tables
    PYTHONPATH=src python benchmarks/bench_figures.py --check    # list what moved; exit 1 if anything did
    PYTHONPATH=src python benchmarks/bench_figures.py --record   # the same list, then rewrite the file
    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py  # one bit-exact test per figure

A change that is meant to move the figures re-records the file and lists
the moved points in CHANGES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import Dict
from unittest import mock

import pytest

from repro.engine import run_workload
from repro.experiments import figures, runner
from repro.experiments.figures import FigureResult
from repro.experiments.reporting import format_figure, moved
from repro.metrics import CostKind, CostWeights
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF

BENCH_FILE = Path(__file__).with_name("BENCH_figures.json")

#: The committed scale: the figure benchmarks' default, about 6 s for all eight.
SCALE = 0.06

FIGURES = tuple(str(number) for number in range(10, 18))


#: The weight grid: each weight alone at these multiples of its default.
GRID_FACTORS = (0.25, 4.0)


def units(counters: dict, index: int, weights: dict) -> float:
    """Cost units of point ``index`` of per-kind ``counters`` under ``weights``,
    summed as ``CostModel`` sums them."""
    return sum(weights[kind] * counters[kind][index] for kind in CostKind.ALL)


def figure_record(result: FigureResult, counters: list) -> dict:
    """One figure's committed numbers; ``counters`` holds its runs' counts in
    run order (each point's REF run, then its JIT run)."""
    strategies = (STRATEGY_REF, STRATEGY_JIT)
    record = {
        "title": result.title,
        "plan": result.plan_shape,
        "parameter": result.parameter,
        "values": result.values,
        **{
            strategy: {
                "cpu_units": result.series("cpu_units", strategy),
                "peak_memory_kb": result.series("peak_memory_kb", strategy),
                "results": result.series("result_count", strategy),
                "counters": {kind: [run[kind] for run in counters[offset::2]] for kind in CostKind.ALL},
            }
            for offset, strategy in enumerate(strategies)
        },
        "ref_over_jit_cpu_units": result.speedups(),
    }
    weights = CostWeights().as_dict()
    assert all(units(record[s]["counters"], i, weights) == cpu for s in strategies
               for i, cpu in enumerate(record[s]["cpu_units"])), "counts paired with the wrong run"
    return record


def weight_grid(record: dict) -> str:
    """Whether each point's REF-vs-JIT ``cpu_units`` direction survives each
    weight at each ``GRID_FACTORS`` multiple, the other weights at their
    defaults: arithmetic on the recorded counts, nothing re-run."""
    defaults = CostWeights().as_dict()
    ref, jit = record[STRATEGY_REF], record[STRATEGY_JIT]
    flips = []
    for kind, factor in itertools.product(CostKind.ALL, GRID_FACTORS):
        weights = dict(defaults, **{kind: defaults[kind] * factor})
        for index, value in enumerate(record["values"]):
            ref_wins = units(ref["counters"], index, weights) > units(jit["counters"], index, weights)
            if ref_wins != (ref["cpu_units"][index] > jit["cpu_units"][index]):
                flips.append(f"\n  flips: {kind} x{factor:g} at {record['parameter']}={value}")
    tried = len(CostKind.ALL) * len(GRID_FACTORS) * len(record["values"])
    return (f"weight grid (each weight x{GRID_FACTORS[0]:g}, x{GRID_FACTORS[1]:g}): REF-vs-JIT "
            f"direction holds at {tried - len(flips)} of {tried}" + "".join(flips))


def run_figure(number: str) -> tuple:
    """Figure ``number`` at ``SCALE``, and each run's counts in run order.

    A sweep keeps only each run's totals, so the counts are read off the
    run reports as the sweep makes them.
    """
    counters = []

    def run_and_count(*args, **kwargs):
        report = run_workload(*args, **kwargs)
        counters.append(dict(report.metrics.counters))
        return report

    with mock.patch.object(runner, "run_workload", run_and_count):
        result = getattr(figures, f"figure{number}")(scale=SCALE)
    return result, counters


def record_all(show: bool = False) -> dict:
    records = {}
    for number in FIGURES:
        result, counters = run_figure(number)
        records[f"figure{number}"] = figure_record(result, counters)
        if show:
            print(format_figure(result))
            print(weight_grid(records[f"figure{number}"]) + "\n")
    return {"scale": SCALE, "figures": records}


def load() -> Dict[str, object]:
    return json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {}


@pytest.mark.parametrize("number", FIGURES)
def test_figure(number):
    """Figure ``number`` reproduces its committed points bit for bit."""
    committed = load()
    assert committed.get("scale") == SCALE
    result, counters = run_figure(number)
    print()
    print(format_figure(result))
    lines = moved(committed["figures"][f"figure{number}"], figure_record(result, counters))
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
