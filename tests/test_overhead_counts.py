"""The overhead gates count bytecodes, and the counts have teeth.

``benchmarks/check_exact.py`` gates three overheads measured by
``benchmarks/bench_throughput.py`` — a disabled tracer, an idle health
monitor, the serving front-end over the raw engine — as ratios of the
Python bytecodes each variant executes per event.  A ratio of counts can
hold a 2% bound only if each count repeats exactly and moves with the work
done on the path it measures; these tests check both, at a small size.
"""

from __future__ import annotations

import dis
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: The gated variants of each suite.
GATED = {
    "trace": ("untraced", "disabled"),
    "health": ("unmonitored", "idle_monitor"),
    "serve": ("raw", "block"),
}

SMALL = {"n_queries": 4, "n_events": 60}

#: Run in a fresh interpreter: every suite at ``SMALL``, printing each
#: variant's count.
COUNT_ALL = f"""
import json
import bench_throughput as bench
small = {SMALL!r}
serve = bench.bench_serve(**small, boost_steps=())
tables = {{
    "trace": bench.bench_trace(**small)["variants"],
    "health": bench.bench_health(**small)["variants"],
    "serve": {{"raw": serve["raw"], **serve["policies"]}},
}}
print(json.dumps({{suite: {{v: row["opcodes"] for v, row in rows.items()}}
                  for suite, rows in tables.items()}}))
"""


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench_throughput", BENCH_DIR / "bench_throughput.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_repeat_across_interpreters_and_hash_seeds():
    path = os.pathsep.join([str(BENCH_DIR)] + sys.path)
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", COUNT_ALL],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(output) for output in outputs)
    for suite, variants in GATED.items():
        for variant in variants:
            assert first[suite][variant] > 0
            assert first[suite][variant] == second[suite][variant], (suite, variant)


def test_a_hook_on_the_served_path_moves_the_count_by_its_length(monkeypatch):
    from repro.serve import StreamServer

    bench = _bench()
    before = bench.bench_serve(**SMALL, boost_steps=())

    def submit(self, event, _submit=StreamServer.submit):
        return _submit(self, event)

    # Each instruction executes once per call; the RESUME that opens the
    # frame is reported as the trace's "call" event, not as an opcode.
    length = sum(1 for op in dis.get_instructions(submit) if op.opname != "RESUME")
    monkeypatch.setattr(StreamServer, "submit", submit)
    after = bench.bench_serve(**SMALL, boost_steps=())

    n_events = before["config"]["n_events"]
    assert after["raw"]["opcodes"] == before["raw"]["opcodes"]
    moved = after["policies"]["block"]["opcodes"] - before["policies"]["block"]["opcodes"]
    assert moved == length * n_events
    assert after["serving_overhead_ratio"] < before["serving_overhead_ratio"]
