"""Smoke test of the benchmark itself; lives with it, not in tier-1.

    python -m pytest benchmarks/e2e -q

(``pytest.ini`` has ``testpaths = tests``, so the tier-1 command never
collects this file.)
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
from repro.trace import validate_chrome_trace  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    done = run_benchmark("--smoke", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return {"stdout": done.stdout, "result": json.loads(out.read_text())}


def test_every_workload_and_metric_is_printed_with_its_unit(smoke):
    printed = {
        (m[1], m[2], m[4])
        for m in re.finditer(r"^(\S+) (\S+) = (\S+) (\S+)", smoke["stdout"], re.M)
    }
    for workload in CONFIG["workloads"]:
        entry = smoke["result"]["workloads"][workload["name"]]
        assert entry["correct"] and entry["valid"] and entry["failed_share"] == 0
        for kind in ("end_to_end", "per_layer"):
            for metric in CONFIG[kind]:
                assert entry[kind][metric["name"]]["unit"] == metric["unit"], metric
                assert (workload["name"], metric["name"], metric["unit"]) in printed, metric
        for metric in CONFIG["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["median"] > 0, metric
    assert smoke["result"]["problems"] == []


def test_paper_workload_shows_the_jit_saving(smoke):
    metrics = smoke["result"]["workloads"]["paper-leftdeep"]
    assert metrics["end_to_end"]["ref_over_jit_cpu_units"]["median"] > 1
    assert metrics["per_layer"]["core.mns_detected"]["median"] > 0


def test_process2_matches_clique128(smoke):
    clique, process = (smoke["result"]["workloads"][w]["exact"] for w in ("clique128", "process2"))
    assert process["cpu_units"] == clique["cpu_units"]
    assert process["results"] == clique["results"]


def test_span_files_are_valid_chrome_traces(smoke):
    for workload in CONFIG["workloads"]:
        path = HERE / "out" / f"spans-{workload['name']}-seed3.json"
        trace = validate_chrome_trace(json.loads(path.read_text()))
        assert any(record["ph"] == "X" for record in trace["traceEvents"])


def test_layers_and_unattributed_share_reconstruct_the_traced_wall(tmp_path):
    detail_path = tmp_path / "detail.json"
    # --seconds 0.01 ends the run after one cycle, so the printed medians are
    # that cycle's own numbers and can be checked against its measured wall.
    done = run_benchmark(
        "--workload", "shared128", "--smoke", "--seed", "3", "--seconds", "0.01",
        "--trace", "1", "--detail", str(detail_path),
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    detail = json.loads(detail_path.read_text())
    assert detail["cycles"] == 1
    wall = detail["ledger_wall_s"]
    layers = sum(
        m["value"] for name, m in metrics.items() if name.endswith(".self_us_per_event")
    ) * detail["events_per_pass"] / 1e6
    unattributed = metrics["ledger.unattributed_share"]["value"]
    assert 0 <= unattributed < 0.10
    assert layers + unattributed * wall == pytest.approx(wall, rel=0.05)
    assert layers == pytest.approx(detail["ledger_attributed_s"], rel=1e-6)


def test_wrappers_are_fully_removed():
    targets = spans.span_targets()
    before = [vars(cls)[attr] for cls, attr, _ in targets]
    with spans.recording({}):
        assert all(vars(cls)[attr] is not original
                   for (cls, attr, _), original in zip(targets, before))
    assert all(vars(cls)[attr] is original
               for (cls, attr, _), original in zip(targets, before))


def test_missing_program_is_a_failure_without_a_result(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "clique128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
