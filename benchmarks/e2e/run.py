#!/usr/bin/env python3
"""The repo's end-to-end benchmark with a per-layer ledger.

Two ways in, one measuring code (``measure.py``):

* **One run** — what ``BENCHMARK.json`` names as the command::

      python3 benchmarks/e2e/run.py --workload clique128 --seed 7 --seconds 20 --trace 0

  measures one workload in this process, checks its outputs against the REF
  oracle, prints every metric by name and unit, and ends with one JSON line
  ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
  end-to-end metrics with nothing traced, ``--trace 1`` the per-layer ones.

* **The suite** — no ``--workload``::

      python3 benchmarks/e2e/run.py [--seed N] [--repeats R] [--workloads a,b] [--smoke] [--paced]

  runs every (workload, repeat) as two such runs (``--trace 0``, ``--trace
  1``), each in a fresh child interpreter (``PYTHONHASHSEED=0``), workloads
  interleaved round-robin; reports each metric as median + quartiles + sample
  count, requires the deterministic metrics to repeat exactly, and writes the
  result JSON that ``compare.py`` reads.  Exits non-zero on any oracle
  mismatch, refused event or non-repeating exact metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: End-to-end metrics that are a function of the inputs alone.
EXACT_METRICS = ("cpu_units_per_event", "peak_memory_kb", "ref_over_jit_cpu_units")


def load_program() -> None:
    """Put the program under test (``src/repro``) on the import path."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: nothing to benchmark, {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


# -- one run -----------------------------------------------------------------------


def run_one(args) -> int:
    load_program()
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    OUT.mkdir(exist_ok=True)
    if args.paced:
        result = measure.run_paced(workload, args.seed, args.smoke)
    elif args.trace:
        span_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        result = measure.run_per_layer(workload, args.seed, seconds, args.smoke, span_path)
    else:
        result = measure.run_end_to_end(workload, args.seed, seconds, args.smoke)
    detail = result.pop("detail")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} failed_share = {result['failed'] / result['attempted']:.6g}")
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


# -- the suite ---------------------------------------------------------------------


def child_run(name: str, args, seconds: float, extra: list) -> dict:
    """One run in a fresh interpreter; returns its result line plus its detail."""
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        detail_path = Path(scratch) / "detail.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--detail", str(detail_path), *extra,
        ]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(
            command, env=dict(os.environ, PYTHONHASHSEED="0"),
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"run.py: child for {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["detail"] = json.loads(detail_path.read_text())
    return result


def summarise(runs: list) -> dict:
    """``metric -> {unit, median, q1, q3, n, samples}`` over the runs of one kind."""
    summary = {}
    for name, first in runs[0]["metrics"].items():
        samples = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = (
            statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
        )
        summary[name] = {
            "unit": first["unit"], "median": statistics.median(samples),
            "q1": q1, "q3": q3, "n": len(samples), "samples": samples,
        }
    return summary


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_suite(args) -> int:
    load_program()
    from workloads import WORKLOADS

    from_config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in from_config["workloads"]
    ]
    seconds = 1 if args.smoke else (args.seconds or from_config["run_seconds"])
    repeats = 1 if args.smoke else args.repeats
    OUT.mkdir(exist_ok=True)

    children = {name: {"0": [], "1": []} for name in names}
    for repeat in range(repeats):
        for name in names:
            for trace in ("0", "1"):
                print(f"[{repeat + 1}/{repeats}] {name} --trace {trace} ...",
                      file=sys.stderr, flush=True)
                children[name][trace].append(child_run(name, args, seconds, ["--trace", trace]))
    report = {}
    problems = []
    for name in names:
        runs, traced = children[name]["0"], children[name]["1"]
        attempted = sum(run["attempted"] for run in runs + traced)
        failed = sum(run["failed"] for run in runs + traced)
        exact = [run["detail"]["exact"] for run in runs]
        repeats_exactly = all(other == exact[0] for other in exact[1:]) and all(
            run["metrics"][metric] == runs[0]["metrics"][metric]
            for run in runs[1:] for metric in EXACT_METRICS
        )
        correct = all(run["correct"] for run in runs + traced)
        if not repeats_exactly:
            problems.append(f"{name}: exact metrics differ between repeats (run invalid)")
        if not correct or failed:
            reasons = [m for run in runs for m in run["detail"]["mismatches"]]
            reasons += [p for run in traced for p in run["detail"]["problems"]]
            problems.append(f"{name}: failed={failed} {reasons}")
        report[name] = {
            "valid": repeats_exactly,
            "correct": correct,
            "failed_share": failed / attempted,
            "oracle_s": statistics.median(run["detail"]["oracle_s"] for run in runs),
            "events_per_round": runs[0]["detail"]["rounds"][0]["events"],
            "rounds": len(runs[0]["detail"]["rounds"]),
            "events_per_traced_pass": traced[0]["detail"]["events_per_pass"],
            "exact": exact[0],
            "end_to_end": summarise(runs),
            "per_layer": summarise(traced),
            "spans": traced[-1]["detail"]["span_self_us_per_event"],
        }
        if args.paced and WORKLOADS[name].serving:
            paced = child_run(name, args, seconds, ["--paced"])
            report[name]["diagnostics"] = summarise([paced])

    # process2 serves clique128's exact population and events (its modelled
    # memory is a sum of two shard peaks, so only cost and results must agree).
    if {"clique128", "process2"} <= set(report):
        for key in ("cpu_units", "results"):
            if report["process2"]["exact"][key] != report["clique128"]["exact"][key]:
                problems.append(f"process2 and clique128 disagree on {key}")

    result = {
        "stamp": {
            "cpu_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "seed": args.seed,
            "PYTHONHASHSEED": "0",
            "run_seconds": seconds,
            "repeats": repeats,
            "smoke": args.smoke,
        },
        "problems": problems,
        "workloads": report,
    }
    out = Path(args.out) if args.out else OUT / "results.json"
    out.write_text(json.dumps(result, indent=1))

    for name, entry in report.items():
        for kind in ("end_to_end", "per_layer", "diagnostics"):
            for metric, s in entry.get(kind, {}).items():
                print(
                    f"{name} {metric} = {s['median']:.6g} {s['unit']} "
                    f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]"
                )
        print(f"{name} failed_share = {entry['failed_share']:.6g}")
        print(f"{name} oracle_s = {entry['oracle_s']:.6g} s")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(f"wrote {out}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the run's round-level detail here")
    parser.add_argument("--smoke", action="store_true", help="shrink every workload, 1 repeat")
    parser.add_argument("--paced", action="store_true",
                        help="also run the ungated open-loop diagnostic (serving workloads)")
    parser.add_argument("--repeats", type=int, default=5, help="suite: runs per workload")
    parser.add_argument("--workloads", help="suite: comma-separated subset")
    parser.add_argument("--out", help="suite: where to write the result JSON")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
