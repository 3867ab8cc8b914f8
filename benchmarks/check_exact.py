"""The benchmarks' deterministic numbers, held to their record.

``BENCH_exact.json`` holds two parts, and one ``--check`` / ``--record``
covers both:

* **e2e** — ``benchmarks/e2e/run.py``'s suite writes one result file per
  run.  Three of its end-to-end metrics (``EXACT_METRICS``:
  ``cpu_units_per_event``, ``peak_memory_kb``, ``ref_over_jit_cpu_units``)
  are functions of the inputs alone, so for one seed and one size they
  repeat to the last bit.  The record holds the ``repr`` of every sample of
  each of them per workload, from the smoke suite (seed 0); this part reads
  ``benchmarks/e2e/out/results.json`` unless given another suite file, and
  refuses (exit 2) a file whose ``stamp.seed`` or ``stamp.smoke`` differs
  from the record's: its numbers are of other inputs.
* **overheads** — ``bench_throughput.py``'s ``trace``, ``health`` and
  ``serve`` suites, run here, count the Python bytecodes each variant
  executes per event, and those counts repeat exactly.  ``GATES`` holds
  each suite to its record: a disabled tracer and an idle monitor within
  2% of the bytecodes of the run without them (their ``acceptance.ok``)
  and within 5% of the recorded ratio; the served/raw ratio within 30% of
  its record; the workload ``config`` and the seeded result counts equal to
  the record's.

::

    python3 benchmarks/e2e/run.py --smoke --workloads clique128,shared128,paper-leftdeep,process2 --repeats 1
    python3 benchmarks/check_exact.py --check    # list what moved; exit 1 if anything did or a gate failed
    python3 benchmarks/check_exact.py --record   # the same list, then rewrite the file

A change that is meant to move these numbers re-records the file and lists
the moved leaves in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE), str(HERE / "e2e")]

from run import EXACT_METRICS, OUT  # noqa: E402

RECORD_FILE = HERE / "BENCH_exact.json"
STAMP_KEYS = ("seed", "smoke")

#: Per overhead suite: ``ratios`` as ``(path, tolerance, mode)``, where
#: ``min`` lets the fresh ratio fall at most ``tolerance`` below the
#: record's and ``band`` keeps it within ``tolerance`` of it on both
#: sides; ``flags`` must be true in the fresh run; ``equal`` must repeat
#: the record exactly.
GATES = {
    "trace": {
        "ratios": [("acceptance.disabled_vs_untraced", 0.05, "min")],
        "flags": ["acceptance.ok"],
        "equal": ["config", "total_results"],
    },
    "health": {
        "ratios": [("acceptance.idle_vs_unmonitored", 0.05, "min")],
        "flags": ["acceptance.ok"],
        "equal": ["config", "total_results"],
    },
    "serve": {
        "ratios": [("serving_overhead_ratio", 0.30, "band")],
        "flags": ["policies.block.shed_total_matches"],
        "equal": ["config", "total_results", "policies.block.shed"],
    },
}


def exact_record(results: dict) -> dict:
    """The stamp keys and the ``repr`` of every exact sample, per workload."""
    return {
        "stamp": {key: results["stamp"][key] for key in STAMP_KEYS},
        "workloads": {
            name: {
                metric: [repr(sample) for sample in entry["end_to_end"][metric]["samples"]]
                for metric in EXACT_METRICS
            }
            for name, entry in sorted(results["workloads"].items())
        },
    }


def moved(before: dict, after: dict) -> list:
    """One line per leaf (workload, metric, sample) that differs."""
    lines = []
    for name in sorted(set(before) | set(after)):
        if name not in after:
            lines.append(f"{name}: recorded, missing from the results")
            continue
        if name not in before:
            lines.append(f"{name}: in the results, not recorded")
            continue
        for metric in EXACT_METRICS:
            was, now = before[name][metric], after[name][metric]
            if len(was) != len(now):
                lines.append(f"{name} {metric}: {len(was)} samples -> {len(now)}")
                continue
            for index, (a, b) in enumerate(zip(was, now)):
                if a != b:
                    lines.append(f"{name} {metric}[{index}]: {a} -> {b}")
    return lines


def _lookup(table: dict, path: str) -> object:
    for part in path.split("."):
        table = table[part]
    return table


def overhead_tables() -> dict:
    """A fresh run of each gated suite, at its defaults but with no boost
    sweep, which no gate reads."""
    import bench_throughput as bench

    return {
        "trace": bench.bench_trace(),
        "health": bench.bench_health(),
        "serve": bench.bench_serve(boost_steps=()),
    }


def overhead_record(tables: dict) -> dict:
    """What the record keeps of each suite: its ratios and exact leaves."""
    return {
        suite: {
            path: _lookup(tables[suite], path)
            for path in [ratio[0] for ratio in spec["ratios"]] + spec["equal"]
        }
        for suite, spec in GATES.items()
    }


def gate(record: dict, tables: dict) -> tuple:
    """Each suite's checks against its record: (one line per check, all passed)."""
    lines = []
    for suite, spec in GATES.items():
        recorded, fresh = record[suite], tables[suite]
        checks = []
        for path, tolerance, mode in spec["ratios"]:
            base, value = recorded[path], _lookup(fresh, path)
            floor = base * (1.0 - tolerance)
            ceiling = base * (1.0 + tolerance) if mode == "band" else float("inf")
            bound = f">= {floor:.6f}" if mode == "min" else f"in [{floor:.6f}, {ceiling:.6f}]"
            checks.append((f"{path}: recorded {base:.6f}, fresh {value:.6f} ({bound})",
                           floor <= value <= ceiling))
        for path in spec["flags"]:
            checks.append((f"{path}: {_lookup(fresh, path)}", bool(_lookup(fresh, path))))
        for path in spec["equal"]:
            base, value = recorded[path], _lookup(fresh, path)
            checks.append((f"{path}: as recorded" if value == base
                           else f"{path}: recorded {base}, fresh {value}", value == base))
        lines += [f"{suite} {text} {'PASS' if ok else 'FAIL'}" for text, ok in checks]
    return lines, all(line.endswith("PASS") for line in lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true",
                        help="list what moved; exit 1 if anything did or a gate failed")
    action.add_argument("--record", action="store_true", help="list what moved, then rewrite the file")
    parser.add_argument("results", nargs="?", default=str(OUT / "results.json"),
                        help="the e2e suite file to read (default: %(default)s)")
    args = parser.parse_args(argv)
    before = json.loads(RECORD_FILE.read_text()) if RECORD_FILE.exists() else {}
    fresh = exact_record(json.loads(Path(args.results).read_text()))
    if args.check:
        if "overheads" not in before:
            sys.exit(f"check_exact.py: no record at {RECORD_FILE}; make one with --record")
        if before["stamp"] != fresh["stamp"]:
            print(f"check_exact.py: {args.results} is stamped {fresh['stamp']}, "
                  f"the record {before['stamp']}; not comparable", file=sys.stderr)
            return 2
    lines = moved(before["workloads"], fresh["workloads"]) if before else []
    print("\n".join(lines) if lines else "nothing moved")
    tables = overhead_tables()
    if "overheads" in before:
        gate_lines, passed = gate(before["overheads"], tables)
        print("\n".join(gate_lines))
    else:
        passed = True
    if args.record:
        RECORD_FILE.write_text(json.dumps({**fresh, "overheads": overhead_record(tables)}, indent=1) + "\n")
        return 0
    return 1 if lines or not passed else 0


if __name__ == "__main__":
    sys.exit(main())
