"""Spans recorded from outside the program.

The benchmark never edits ``src/``: a layer boundary is observed by replacing
a class attribute with a timing wrapper for the duration of one pass and
putting the original back afterwards.  Wrappers go in *before* the engine is
built, because the engine pre-binds methods at build time
(``plan.set_result_sink(collector.add)``, ``scheduler.pop_next`` in the drain
loop) and a bound method keeps whatever function the class held when it was
bound.

A span is ``[name, start, end, parent, trace_id]``.  ``parent`` is the index
of the enclosing span on the same thread (-1 for a root), so a layer's self
time is its duration minus its direct children's.  ``trace_id`` is the index
of the event being served: wrappers whose first argument is the event look it
up by identity, every other span inherits its parent's.  In the closed loop a
drain runs under a *later* event's ``submit``; the spans it causes still carry
the trace id of the event they serve, while ``parent`` names what caused them.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Spans of this many leading events go to the Chrome trace file; self times
#: and counts always cover the whole pass.  Keeps the file a few MB.
CHROME_EVENTS = 200


def _subclasses(base: type) -> List[type]:
    found, stack = [base], [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


def span_targets() -> List[Tuple[type, str, bool]]:
    """``(class, attribute, first_arg_is_event)`` for every wrapped entry point."""
    import repro.core  # noqa: F401  (registers JITJoinOperator as an Operator subclass)
    import repro.operators  # noqa: F401
    from repro.engine.engine import ExecutionEngine
    from repro.engine.results import ResultCollector
    from repro.multi.router import StreamRouter
    from repro.multi.shard import ShardEngine
    from repro.multi.sharded import ShardedEngine
    from repro.operators.base import Operator
    from repro.scheduler import OperatorScheduler
    from repro.serve.buffers import BoundedIngestionBuffer
    from repro.serve.server import StreamServer

    targets = [
        (StreamServer, "submit", True),
        (StreamServer, "drain", False),
        (StreamServer, "flush", False),
        (BoundedIngestionBuffer, "offer", True),
        (BoundedIngestionBuffer, "pop_batch", False),
        (ShardedEngine, "submit", True),
        (ShardedEngine, "flush", False),
        (StreamRouter, "shards_for", False),
        (ShardEngine, "process_event", True),
        (ShardEngine, "process_batch", False),
        (ExecutionEngine, "process_event", True),
        (ResultCollector, "add", False),
    ]
    for base, attr in ((OperatorScheduler, "pop_next"), (Operator, "process")):
        for cls in _subclasses(base):
            method = vars(cls).get(attr)
            if method is not None and not getattr(method, "__isabstractmethod__", False):
                targets.append((cls, attr, False))
    return targets


def layer_of_class(cls: type) -> str:
    """``repro.serve.server.StreamServer`` -> ``serve.server``."""
    return cls.__module__.split(".", 1)[1]


@contextmanager
def patched(cls: type, attr: str, replacement: Callable) -> Iterator[None]:
    """Replace one class attribute for the duration of the block."""
    original = vars(cls)[attr]
    setattr(cls, attr, replacement)
    try:
        yield
    finally:
        setattr(cls, attr, original)


class SpanRecorder:
    """Holds the spans of one pass, one list and one open-span stack per thread."""

    def __init__(self, event_index: Dict[int, int]) -> None:
        #: ``id(event)`` -> position in the replayed event list.
        self.event_index = event_index
        #: thread ident -> (spans, stack of open span indexes)
        self._threads: Dict[int, Tuple[list, list]] = {}
        self._lock = threading.Lock()

    def _thread_state(self, ident: int) -> Tuple[list, list]:
        with self._lock:
            return self._threads.setdefault(ident, ([], []))

    def wrap(self, original: Callable, name: str, event_arg: bool) -> Callable:
        threads = self._threads
        index = self.event_index
        now = time.perf_counter
        get_ident = threading.get_ident
        new_thread = self._thread_state

        def wrapper(*args, **kwargs):
            ident = get_ident()
            spans, stack = threads.get(ident) or new_thread(ident)
            parent = stack[-1] if stack else -1
            if event_arg:
                trace = index.get(id(args[1]), -1)
            else:
                trace = spans[parent][4] if parent >= 0 else -1
            span = [name, now(), 0.0, parent, trace]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()

        return wrapper

    # -- reading the pass back -------------------------------------------------

    def _all_spans(self) -> Iterator[Tuple[int, list]]:
        for tid, (spans, _stack) in enumerate(self._threads.values()):
            yield tid, spans

    @property
    def span_count(self) -> int:
        return sum(len(spans) for _tid, spans in self._all_spans())

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)``: duration minus direct children."""
        totals: Dict[str, List[float]] = {}
        for _tid, spans in self._all_spans():
            child_time = [0.0] * len(spans)
            for _name, start, end, parent, _trace in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for position, (name, start, end, _parent, _trace) in enumerate(spans):
                cell = totals.setdefault(name, [0, 0.0])
                cell[0] += 1
                cell[1] += (end - start) - child_time[position]
        return {name: (int(calls), seconds) for name, (calls, seconds) in totals.items()}

    def durations_by_trace(self, names: Tuple[str, ...]) -> Dict[int, float]:
        """Summed duration of the named spans per trace id (untagged skipped)."""
        out: Dict[int, float] = {}
        for _tid, spans in self._all_spans():
            for name, start, end, _parent, trace in spans:
                if trace >= 0 and name in names:
                    out[trace] = out.get(trace, 0.0) + (end - start)
        return out

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON of the first :data:`CHROME_EVENTS` events."""
        epoch = min(
            (spans[0][1] for _tid, spans in self._all_spans() if spans), default=0.0
        )
        records = []
        for tid, spans in self._all_spans():
            records.append(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                 "args": {"name": "main" if tid == 0 else f"reader-{tid}"}}
            )
            for position, (name, start, end, parent, trace) in enumerate(spans):
                if trace >= CHROME_EVENTS:
                    continue
                layer, _, label = name.partition(":")
                records.append(
                    {"name": label, "cat": layer, "ph": "X", "pid": 0, "tid": tid,
                     "ts": (start - epoch) * 1e6, "dur": (end - start) * 1e6,
                     "args": {"trace_id": trace, "span": position, "parent": parent}}
                )
        return {"traceEvents": records, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


@contextmanager
def recording(event_index: Dict[int, int]) -> Iterator[SpanRecorder]:
    """Install every span wrapper, yield the recorder, restore the classes."""
    recorder = SpanRecorder(event_index)
    saved = []
    try:
        for cls, attr, event_arg in span_targets():
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            name = f"{layer_of_class(cls)}:{cls.__name__}.{attr}"
            setattr(cls, attr, recorder.wrap(original, name, event_arg))
        yield recorder
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)
