"""The per-layer ledger: one pass under ``cProfile``, booked by source file.

Every profiled function's own time (``tottime``) and call count is booked to
exactly one layer, so the layers plus the benchmark's own share add up to the
profile's total:

* a function defined under ``src/repro/`` -> the sublayer named after its
  file (``serve/server.py`` -> ``serve.server``); files not in
  :data:`SUBLAYERS` -> ``other``;
* ``pickle`` and ``multiprocessing`` -> ``transport``;
* the benchmark's own files -> ``bench`` (reported as unattributed);
* anything else (C builtins, the standard library) has no layer of its own
  and is booked to its *callers'* layers, edge by edge, using the caller
  edges the profiler records — ``list.append`` called from
  ``operators/state.py`` is ``operators.state`` time;
* garbage-collection pauses are timed with ``gc.callbacks`` and moved out of
  the layer whose frame triggered the collection into ``gc``.

``cProfile`` charges every call but not the work inside native code, so the
proportions are those of the profiled program, not of the untraced one; the
caller reports the wall-clock ratio between the two beside the ledger.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import time
from typing import Callable, Dict, Optional, Tuple

SUBLAYERS = (
    "serve.server", "serve.buffers", "serve.telemetry",
    "multi.sharded", "multi.router", "multi.shard", "multi.backend", "multi.clock",
    "scheduler.policies", "scheduler.scheduler",
    "engine.engine", "engine.results",
    "operators.queues", "operators.state", "operators.join",
    "operators.predicates", "operators.base", "operators.tee",
    "core.jit_join", "core.blacklist", "core.mns_detection", "core.mns_buffer",
    "core.cns_lattice", "core.signature", "core.feedback",
    "metrics", "streams.tuples", "streams.time", "context",
    "transport", "gc", "other",
)

BENCH = "bench"
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_TRANSPORT_MARKS = (os.sep + "multiprocessing" + os.sep, os.sep + "pickle.py")
#: Builtins in which the parent only waits for a worker or the pipe.
_WAIT_BUILTINS = (
    "<method 'acquire' of '_thread.lock' objects>",
    "<built-in method posix.write>",
    "<built-in method posix.read>",
    "<method 'poll' of 'select.poll' objects>",
)

Func = Tuple[str, int, str]


def layer_of_path(path: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` for builtins/stdlib."""
    mark = path.rfind(_REPRO_MARK)
    if mark >= 0:
        relative = path[mark + len(_REPRO_MARK):-len(".py")]
        name = relative.replace(os.sep, ".")
        return name if name in SUBLAYERS else "other"
    if path.startswith(_BENCH_DIR):
        return BENCH
    if any(mark in path for mark in _TRANSPORT_MARKS):
        return "transport"
    return None


class GcPauses:
    """``gc.callbacks`` hook: pause seconds per layer of the triggering frame."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.collections = 0
        self._started = 0.0
        self._layer = "other"

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            frame = sys._getframe(1)
            layer = None
            while frame is not None and layer is None:
                layer = layer_of_path(frame.f_code.co_filename)
                frame = frame.f_back
            self._layer = layer or "other"
            self._started = time.perf_counter()
        else:
            pause = time.perf_counter() - self._started
            self.seconds[self._layer] = self.seconds.get(self._layer, 0.0) + pause
            self.collections += 1


class Ledger:
    """Seconds and calls per layer for one profiled pass."""

    def __init__(self, wall: float) -> None:
        self.wall = wall
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, float] = {}
        self.python_calls = 0
        self.wait_seconds = 0.0
        self.calls_by_function: Dict[Tuple[str, str], int] = {}

    def book(self, layer: str, seconds: float, calls: float) -> None:
        self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds
        self.calls[layer] = self.calls.get(layer, 0.0) + calls

    @property
    def attributed(self) -> float:
        """Seconds booked to a program layer (everything but the benchmark)."""
        return sum(s for layer, s in self.seconds.items() if layer != BENCH)

    @property
    def unattributed_share(self) -> float:
        """Share of the pass's wall clock no program layer accounts for."""
        return (self.wall - self.attributed) / self.wall

    def function_calls(self, layer: str, *names: str) -> int:
        """Calls of the named functions of one ``src/repro`` file."""
        return sum(self.calls_by_function.get((layer, name), 0) for name in names)


def profile(run: Callable[[], None]) -> Ledger:
    """Run ``run`` under cProfile with GC pauses timed, and book the result."""
    pauses = GcPauses()
    profiler = cProfile.Profile()
    gc.callbacks.append(pauses)
    started = time.perf_counter()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
        wall = time.perf_counter() - started
        gc.callbacks.remove(pauses)
    return book(pstats.Stats(profiler).stats, pauses, wall)


def book(stats: Dict[Func, tuple], pauses: GcPauses, wall: float) -> Ledger:
    ledger = Ledger(wall)
    own = {func: layer_of_path(func[0]) for func in stats}
    blends: Dict[Func, Dict[str, float]] = {}

    def blend(func: Func, seen: frozenset) -> Dict[str, float]:
        """How a layer-less function's callers split over the layers."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in blends:
            return blends[func]
        callers = stats[func][4] if func in stats else {}
        if func in seen or not callers:
            return {BENCH if not callers else "other": 1.0}
        total = sum(edge[0] for edge in callers.values()) or 1
        mix: Dict[str, float] = {}
        for caller, edge in callers.items():
            for name, share in blend(caller, seen | {func}).items():
                mix[name] = mix.get(name, 0.0) + share * edge[0] / total
        blends[func] = mix
        return mix

    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = own[func]
        if func[0] != "~":
            ledger.python_calls += ncalls
        if func[2] in _WAIT_BUILTINS:
            ledger.wait_seconds += tottime
        if layer is not None:
            ledger.book(layer, tottime, ncalls)
            if layer not in (BENCH, "transport"):
                key = (layer, func[2])
                ledger.calls_by_function[key] = ledger.calls_by_function.get(key, 0) + ncalls
            continue
        if not callers:
            ledger.book(BENCH, tottime, ncalls)
            continue
        booked = 0.0
        for caller, (edge_calls, _ecc, edge_tottime, _ect) in callers.items():
            booked += edge_tottime
            for name, share in blend(caller, frozenset((func,))).items():
                ledger.book(name, edge_tottime * share, edge_calls * share)
        ledger.book("other", tottime - booked, 0)

    for layer, seconds in pauses.seconds.items():
        ledger.book(layer, -seconds, 0)
        ledger.book("gc", seconds, 0)
    ledger.calls["gc"] = pauses.collections
    return ledger
