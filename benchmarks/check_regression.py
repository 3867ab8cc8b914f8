"""Compare fresh benchmark runs against the committed ``BENCH_*.json`` baselines.

Absolute events/sec numbers are machine-bound, so this gate only compares
**machine-independent** quantities: the ratios each suite computes between
variants it measured back-to-back on the same machine (tracer disabled vs
untraced, idle health monitor vs unmonitored, sharing on vs off, ...), the
suites' own ``acceptance.ok`` verdicts, and — where the workload config is
unchanged — exact result counts (the workloads are seeded, so counts are
deterministic).

A ratio regresses when the fresh value falls below
``baseline * (1 - tolerance)`` (two-sided for overhead-style ratios where
"better" has no direction).  Any regression exits non-zero, which is what
lets nightly CI fail loudly instead of silently recording a slower run.

Usage::

    # compare the nightly-recorded fresh JSONs against the baselines
    python benchmarks/check_regression.py \
        --fresh health=/tmp/BENCH_health_nightly.json \
        --fresh trace=/tmp/BENCH_trace_nightly.json

    # no fresh JSON supplied: run the suite now, then compare
    python benchmarks/check_regression.py --suites health
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

#: Per-suite gate: baseline artifact plus the checks that are meaningful
#: across machines.  ``ratios`` entries are ``(json_path, tolerance, mode)``
#: where mode ``min`` means the fresh ratio must not fall more than
#: ``tolerance`` below baseline and ``band`` bounds it on both sides.
#: ``flags`` are paths that must be true in the fresh run; ``equal`` are
#: paths that must match the baseline exactly (checked only when the
#: workload config is identical).
CHECKS: Dict[str, Dict[str, object]] = {
    "health": {
        "baseline": "BENCH_health.json",
        "ratios": [("acceptance.idle_vs_unmonitored", 0.05, "min")],
        "flags": ["acceptance.ok"],
        "equal": ["total_results"],
    },
    "trace": {
        "baseline": "BENCH_trace.json",
        "ratios": [("acceptance.disabled_vs_untraced", 0.05, "min")],
        "flags": ["acceptance.ok"],
        "equal": ["total_results"],
    },
    "share": {
        "baseline": "BENCH_share.json",
        "ratios": [("acceptance.speedup", 0.30, "min")],
        "flags": ["acceptance.ok"],
        "equal": [],
    },
    "serve": {
        "baseline": "BENCH_serve.json",
        "ratios": [("serving_overhead_ratio", 0.30, "band")],
        "flags": ["policies.block.shed_total_matches"],
        "equal": ["total_results", "policies.block.shed"],
    },
    "multi": {
        "baseline": "BENCH_multi.json",
        "ratios": [],
        "flags": ["acceptance.ok"],
        "equal": ["sharding.1-shard/sync.max_queues_per_shard"],
    },
}


def _lookup(table: object, path: str) -> object:
    node = table
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node


def _run_suite(suite: str) -> Dict[str, object]:
    """Produce a fresh results table by running the suite in-process."""
    import bench_throughput as bt

    if suite == "health":
        return bt.bench_health()
    if suite == "trace":
        return bt.bench_trace()
    if suite == "share":
        return bt.bench_share()
    if suite == "serve":
        return bt.bench_serve()
    if suite == "multi":
        return bt.bench_multi_query(
            bt.DEFAULT_QUERIES,
            bt.DEFAULT_MULTI_EVENTS,
            (1, 2, 4, 8),
            strategy=bt.STRATEGY_REF,
            repeats=2,
            drain_modes=("sync", "process"),
        )
    raise ValueError(f"unknown suite {suite!r}")


def check_suite(
    suite: str,
    fresh: Dict[str, object],
    baseline: Dict[str, object],
) -> Tuple[List[str], List[str]]:
    """Return (failures, lines) for one suite's fresh-vs-baseline gate."""
    spec = CHECKS[suite]
    failures: List[str] = []
    lines: List[str] = []

    for path, tolerance, mode in spec["ratios"]:
        base = float(_lookup(baseline, path))
        value = float(_lookup(fresh, path))
        floor = base * (1.0 - tolerance)
        ceiling = base * (1.0 + tolerance) if mode == "band" else float("inf")
        ok = floor <= value <= ceiling
        bound = f">= {floor:.3f}" if mode == "min" else f"in [{floor:.3f}, {ceiling:.3f}]"
        lines.append(
            f"  {path:<38} baseline={base:.3f} fresh={value:.3f} "
            f"({bound}) {'PASS' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(f"{suite}: {path} = {value:.3f}, required {bound}")

    for path in spec["flags"]:
        ok = bool(_lookup(fresh, path))
        lines.append(f"  {path:<38} fresh={ok} {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{suite}: {path} is false in the fresh run")

    if spec["equal"]:
        if fresh.get("config") == baseline.get("config"):
            for path in spec["equal"]:
                base = _lookup(baseline, path)
                value = _lookup(fresh, path)
                ok = value == base
                lines.append(
                    f"  {path:<38} baseline={base} fresh={value} "
                    f"{'PASS' if ok else 'FAIL'}"
                )
                if not ok:
                    failures.append(
                        f"{suite}: {path} = {value!r}, baseline recorded {base!r} "
                        "(same seeded config must reproduce it exactly)"
                    )
        else:
            lines.append(
                "  (workload config differs from the baseline — exact-equality "
                "checks skipped; re-record the baseline if the change is intended)"
            )
    return failures, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suites",
        default=None,
        help="comma-separated suites to gate (default: every suite a --fresh "
        "path was supplied for, or 'health' when none were)",
    )
    parser.add_argument(
        "--fresh",
        action="append",
        default=[],
        metavar="SUITE=PATH",
        help="fresh results JSON for a suite (repeatable); suites without "
        "one are run in-process, which takes benchmark time",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=BENCH_DIR,
        help="directory holding the committed BENCH_*.json baselines",
    )
    args = parser.parse_args(argv)

    fresh_paths: Dict[str, Path] = {}
    for item in args.fresh:
        suite, _, path = item.partition("=")
        if not path or suite not in CHECKS:
            parser.error(
                f"--fresh wants SUITE=PATH with SUITE one of {sorted(CHECKS)}, got {item!r}"
            )
        fresh_paths[suite] = Path(path)

    if args.suites:
        suites = [s.strip() for s in args.suites.split(",") if s.strip()]
    else:
        suites = sorted(fresh_paths) or ["health"]
    unknown = [s for s in suites if s not in CHECKS]
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; expected {sorted(CHECKS)}")

    all_failures: List[str] = []
    for suite in suites:
        baseline_path = args.baseline_dir / CHECKS[suite]["baseline"]
        if not baseline_path.exists():
            print(f"{suite}: no committed baseline at {baseline_path}", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())
        if suite in fresh_paths:
            fresh = json.loads(fresh_paths[suite].read_text())
            source = str(fresh_paths[suite])
        else:
            print(f"{suite}: no fresh JSON supplied — running the suite now...")
            fresh = _run_suite(suite)
            source = "(fresh in-process run)"
        failures, lines = check_suite(suite, fresh, baseline)
        print(f"{suite} vs {baseline_path.name} [{source}]:")
        print("\n".join(lines))
        all_failures.extend(failures)

    if all_failures:
        print(f"\n{len(all_failures)} regression(s):", file=sys.stderr)
        for failure in all_failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nno regressions against committed baselines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
