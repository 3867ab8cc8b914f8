#!/usr/bin/env python3
"""Compare two suite results with the bounds ``BENCHMARK.json`` fixes.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change.  One row per
(workload, end-to-end metric), every ratio printed with its base:

* ``same``       B's median is within the bound of A's;
* ``better``     B's median is better than A's by more than the bound;
* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread (quartile distance over median, the
  wider of the two sides) exceeds the bound and the runs of the two sides
  overlap, so neither of the above can be claimed.

The modelled metrics (``cpu_units_per_event``, ``peak_memory_kb``,
``ref_over_jit_cpu_units``) are functions of the inputs alone: when both
files were recorded with the same seed they are compared exactly, bound 0.

The four wall-clock metrics the recording box cannot hold to any bound
(``events_per_s``, ``cpu_us_per_event``, ``emit_latency_p50_ms``,
``emit_latency_p99_ms``; see README, "Why the timings are not gated") get a
row with the bound the issue proposed for them, marked ``ungated``: the
verdict is information for whoever claims a speed-up, not a gate.  The other
per-layer metrics and the ``--paced`` diagnostics never get a verdict.

Exits non-zero on any gated ``worse`` row or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import EXACT_METRICS, ROOT

UNGATED = (
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "cpu_us_per_event", "unit": "us", "better": "lower", "bound": 0.10},
    {"name": "emit_latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "emit_latency_p99_ms", "unit": "ms", "better": "lower", "bound": 0.15},
)


def spread(samples: list) -> float:
    """Quartile distance as a share of the median (0 for a single sample)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: list, b: list, higher_is_better: bool, bound: float) -> str:
    sign = 1.0 if higher_is_better else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    gain = sign * (median_b - median_a) / median_a
    if bound == 0.0:
        return "same" if sorted(a) == sorted(b) else ("better" if gain > 0 else "worse")
    apart = min(sign * x for x in b) > max(sign * x for x in a) or max(
        sign * x for x in b
    ) < min(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not apart:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(base: dict, change: dict, config: dict) -> int:
    same_seed = base["stamp"]["seed"] == change["stamp"]["seed"]
    rows = []
    failures = 0
    for name in base["workloads"]:
        if name not in change["workloads"]:
            continue
        side_a, side_b = base["workloads"][name], change["workloads"][name]
        gated = [(m, "end_to_end") for m in config["end_to_end"]]
        for metric, kind in gated + [(m, "per_layer") for m in UNGATED]:
            key = metric["name"]
            if key not in side_a[kind] or key not in side_b[kind]:
                continue
            a, b = side_a[kind][key]["samples"], side_b[kind][key]["samples"]
            bound = 0.0 if same_seed and key in EXACT_METRICS else metric["bound"]
            outcome = verdict(a, b, metric["better"] == "higher", bound)
            failures += outcome == "worse" and kind == "end_to_end"
            median_a, median_b = statistics.median(a), statistics.median(b)
            rows.append(
                f"{name:15} {key:24} {outcome:10} B/A = {median_b / median_a:.4f} "
                f"(A = {median_a:.6g} {metric['unit']}, B = {median_b:.6g}, "
                f"bound {bound:g}, spread A {spread(a):.3f} B {spread(b):.3f}, "
                f"n = {len(a)}/{len(b)})" + ("" if kind == "end_to_end" else " ungated")
            )
        if side_b["failed_share"] > side_a["failed_share"]:
            failures += 1
            rows.append(
                f"{name:15} failed_share            worse      "
                f"A = {side_a['failed_share']:g}, B = {side_b['failed_share']:g}"
            )
    print("\n".join(rows))
    unresolved = sum(" unresolved " in row for row in rows)
    print(f"{len(rows)} rows, {failures} gated worse, {unresolved} unresolved")
    return 1 if failures else 0


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(base, change, config)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
