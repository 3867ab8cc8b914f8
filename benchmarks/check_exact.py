"""The end-to-end suite's modelled metrics, held to the bit.

``benchmarks/e2e/run.py``'s suite writes one result file per run.  Three of
its end-to-end metrics (``EXACT_METRICS``: ``cpu_units_per_event``,
``peak_memory_kb``, ``ref_over_jit_cpu_units``) are functions of the inputs
alone, so for one seed and one size they repeat to the last bit.
``BENCH_exact.json`` holds the ``repr`` of every sample of each of them per
workload, recorded from the smoke suite (seed 0)::

    python3 benchmarks/e2e/run.py --smoke --workloads clique128,shared128,paper-leftdeep,process2 --repeats 1
    python3 benchmarks/check_exact.py --check    # list what moved; exit 1 if anything did
    python3 benchmarks/check_exact.py --record   # the same list, then rewrite the file

Both read ``benchmarks/e2e/out/results.json`` unless given another suite
file.  ``--check`` refuses (exit 2) a file whose ``stamp.seed`` or
``stamp.smoke`` differs from the record's: its numbers are of other inputs.
A change that is meant to move the modelled costs re-records the file and
lists the moved leaves in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

from run import EXACT_METRICS, OUT  # noqa: E402

RECORD_FILE = HERE / "BENCH_exact.json"
STAMP_KEYS = ("seed", "smoke")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="list what moved; exit 1 if anything did")
    action.add_argument("--record", action="store_true", help="list what moved, then rewrite the file")
    parser.add_argument("results", nargs="?", default=str(OUT / "results.json"),
                        help="the suite file to read (default: %(default)s)")
    args = parser.parse_args(argv)
    after = exact_record(json.loads(Path(args.results).read_text()))
    before = json.loads(RECORD_FILE.read_text()) if RECORD_FILE.exists() else None
    if args.check:
        if before is None:
            sys.exit(f"check_exact.py: no record at {RECORD_FILE}; make one with --record")
        if before["stamp"] != after["stamp"]:
            print(f"check_exact.py: {args.results} is stamped {after['stamp']}, "
                  f"the record {before['stamp']}; not comparable", file=sys.stderr)
            return 2
    lines = moved(before["workloads"], after["workloads"]) if before else []
    print("\n".join(lines) if lines else "nothing moved")
    if args.record:
        RECORD_FILE.write_text(json.dumps(after, indent=1) + "\n")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
