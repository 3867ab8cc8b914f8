#!/usr/bin/env python3
"""Reach census: which functions in ``src/`` no workload, figure or example runs.

    python benchmarks/reach.py [--max-unreached N]

Runs each target in a child interpreter under a ``sys.setprofile`` /
``threading.setprofile`` hook: the four end-to-end workloads (``--smoke
--trace 0``; ``--trace 1`` installs cProfile, which replaces the hook),
``bench_figures.py --check`` and every example.  Forked process workers
leave through ``os._exit``, so each writes its own reached set from a
wrapped ``BaseProcess._bootstrap``.  Every top-level function and method of
``src/`` (found by AST span, decorators included) that no code object
starting inside its span ran is printed, grouped by module, with its line
count and a total.  Exits 1 if ``--max-unreached`` is given and the total
unreached lines exceed it.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("clique128", "shared128", "paper-leftdeep", "process2")
TARGETS = [
    ["benchmarks/e2e/run.py", "--workload", w, "--smoke", "--trace", "0"] for w in WORKLOADS
]
TARGETS += [["benchmarks/bench_figures.py", "--check"]]
TARGETS += [[str(p.relative_to(ROOT))] for p in sorted((ROOT / "examples").glob("*.py"))]

# Run in the child as ``python -c CHILD OUT SCRIPT ARGS...``.
CHILD = """
import multiprocessing.process, os, runpy, sys, threading
out, script = sys.argv[1], sys.argv[2]
src = os.path.join(os.getcwd(), "src") + os.sep
seen = set()
def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def dump(path):
    sys.setprofile(None)
    with open(path, "w") as f:
        f.writelines(f"{name}:{line}\\n" for name, line in seen)
bootstrap = multiprocessing.process.BaseProcess._bootstrap
def worker_bootstrap(self, *args, **kwargs):
    try:
        return bootstrap(self, *args, **kwargs)
    finally:
        dump(f"{out}.{os.getpid()}")
multiprocessing.process.BaseProcess._bootstrap = worker_bootstrap
sys.argv = sys.argv[2:]
sys.path[0] = os.path.dirname(os.path.abspath(script))
threading.setprofile(hook)
sys.setprofile(hook)
try:
    runpy.run_path(script, run_name="__main__")
finally:
    dump(out)
"""


def functions(path: Path):
    """``(qualified name, first line, last line)`` of each top-level function and method."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                name = f"{node.name}.{fn.name}" if fn is not node else fn.name
                yield name, first, fn.end_lineno


def census(workdir: str) -> set[tuple[str, int]]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    reached = set()
    for i, target in enumerate(TARGETS):
        out = os.path.join(workdir, f"reach{i}")
        code = subprocess.run([sys.executable, "-c", CHILD, out, *target], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        print(f"{' '.join(target)}: exit {code.returncode}", file=sys.stderr)
        if code.returncode:
            sys.exit(f"reach.py: {target[0]} failed\n{code.stderr[-2000:]}")
        for part in glob.glob(out + "*"):
            for line in Path(part).read_text().splitlines():
                name, _, first = line.rpartition(":")
                reached.add((name, int(first)))
    return reached


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-unreached", type=int, help="exit 1 above this many unreached lines")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        reached = census(workdir)
    total_lines = total_fns = n_fns = src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        src_lines += len(path.read_text().splitlines())
        ran = [first for name, first in reached if name == str(path)]
        fns = list(functions(path))
        n_fns += len(fns)
        missed = [(name, last - first + 1) for name, first, last in fns
                  if not any(first <= line <= last for line in ran)]
        if missed:
            print(f"\n{path.relative_to(SRC)}  ({sum(n for _, n in missed)} lines)")
            for name, lines in missed:
                print(f"  {lines:4d}  {name}")
            total_lines += sum(n for _, n in missed)
            total_fns += len(missed)
    print(f"\nunreached: {total_lines} of {src_lines} src/ lines "
          f"({total_fns} of {n_fns} functions)")
    if args.max_unreached is not None and total_lines > args.max_unreached:
        print(f"reach.py: {total_lines} unreached lines > --max-unreached {args.max_unreached}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
