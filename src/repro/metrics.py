"""Cost and memory accounting.

The paper reports two metrics for every experiment (Section VI): total CPU
time and peak memory consumption.  Its prototype is C++ on a Pentium 4; a
pure-Python reimplementation cannot reproduce those absolute wall-clock
numbers faithfully, so this module provides *modelled* counterparts that
preserve the quantities the paper actually compares:

* :class:`CostModel` counts the primitive operations every execution strategy
  performs — predicate evaluations, state probes, partial-result
  constructions, insertions, purges, hash operations, CNS-lattice node
  visits and feedback messages — and converts them into CPU *cost units*
  through a configurable weight table.  JIT's claimed advantage is precisely
  "fewer primitive operations for the same output", so ratios and trends of
  cost units reproduce the shape of the paper's CPU-time figures.
* :class:`MemoryModel` tracks the modelled bytes of every tuple held in
  operator states, blacklists, MNS buffers and inter-operator queues, and
  records the peak — the paper's memory metric.

Both models are deliberately independent of the operator layer so that any
component (including user extensions) can charge them.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

__all__ = ["CostKind", "CostWeights", "CostModel", "MemoryModel", "MetricsReport"]


class CostKind:
    """Names of the primitive operations charged to the cost model.

    Using plain string constants (rather than an Enum) keeps charging calls
    cheap — they happen millions of times per run.
    """

    PREDICATE_EVAL = "predicate_eval"
    PROBE_STEP = "probe_step"
    RESULT_BUILD = "result_build"
    INSERT = "insert"
    PURGE = "purge"
    HASH = "hash"
    LATTICE_NODE = "lattice_node"
    FEEDBACK_MESSAGE = "feedback_message"
    BLACKLIST_SCAN = "blacklist_scan"
    QUEUE_OP = "queue_op"
    SCHEDULER_STEP = "scheduler_step"

    ALL = (
        PREDICATE_EVAL,
        PROBE_STEP,
        RESULT_BUILD,
        INSERT,
        PURGE,
        HASH,
        LATTICE_NODE,
        FEEDBACK_MESSAGE,
        BLACKLIST_SCAN,
        QUEUE_OP,
        SCHEDULER_STEP,
    )


@dataclass(frozen=True)
class CostWeights:
    """Relative CPU cost of each primitive operation.

    The defaults approximate the relative cost of the operations in a C++
    nested-loop join implementation: a probe step (fetch + compare) and a
    predicate evaluation are the unit, building and copying a result tuple is
    a few units, and messages are cheap pointer passes.  That the *shape* of
    the reproduced figures survives moderate changes in these weights is
    expected but unverified: no benchmark varies them.
    """

    predicate_eval: float = 1.0
    probe_step: float = 1.0
    result_build: float = 4.0
    insert: float = 2.0
    purge: float = 1.0
    hash: float = 0.5
    lattice_node: float = 0.5
    feedback_message: float = 2.0
    blacklist_scan: float = 1.0
    queue_op: float = 0.5
    scheduler_step: float = 0.5

    def weight(self, kind: str) -> float:
        """Return the weight of one primitive operation ``kind``."""
        try:
            return float(getattr(self, kind))
        except AttributeError:
            raise KeyError(f"unknown cost kind {kind!r}") from None

    def as_dict(self) -> Dict[str, float]:
        """Return all weights as a plain dictionary."""
        return {kind: self.weight(kind) for kind in CostKind.ALL}


class CostModel:
    """Counts primitive operations and converts them to CPU cost units."""

    def __init__(self, weights: Optional[CostWeights] = None) -> None:
        self.weights = weights or CostWeights()
        #: ``kind -> weight``, built once: ``CostWeights`` is frozen and
        #: :attr:`cpu_units` is read on hot paths (the JIT detection gates).
        self._weight_of: Dict[str, float] = self.weights.as_dict()
        self.counters: Dict[str, int] = {kind: 0 for kind in CostKind.ALL}
        self._wall_start: Optional[float] = None
        self.wall_seconds: float = 0.0

    def charge(self, kind: str, amount: int = 1) -> None:
        """Record ``amount`` primitive operations of the given ``kind``."""
        try:
            self.counters[kind] += amount
        except KeyError:
            raise KeyError(f"unknown cost kind {kind!r}") from None

    @property
    def cpu_units(self) -> float:
        """Total weighted cost units accumulated so far."""
        return self.units(self.counters)

    def units(self, kinds: Iterable[str]) -> float:
        """Weighted cost units accumulated so far by ``kinds`` alone."""
        counters, weight_of = self.counters, self._weight_of
        return sum(weight_of[kind] * counters[kind] for kind in kinds)

    def count(self, kind: str) -> int:
        """Return the raw counter for ``kind``."""
        return self.counters[kind]

    # -- wall-clock (secondary metric) --------------------------------------

    def start_wall_clock(self) -> None:
        """Start (or restart) the wall-clock measurement for this run."""
        self._wall_start = _time.perf_counter()

    def stop_wall_clock(self) -> None:
        """Stop the wall-clock measurement, accumulating elapsed seconds."""
        if self._wall_start is not None:
            self.wall_seconds += _time.perf_counter() - self._wall_start
            self._wall_start = None

    # -- management ----------------------------------------------------------

    def reset(self) -> None:
        """Zero all counters and the wall clock."""
        for kind in self.counters:
            self.counters[kind] = 0
        self.wall_seconds = 0.0
        self._wall_start = None

    def snapshot(self) -> Dict[str, int]:
        """Return a copy of the raw counters."""
        return dict(self.counters)

    def __repr__(self) -> str:
        return f"CostModel(cpu_units={self.cpu_units:.1f})"


class MemoryModel:
    """Tracks current and peak modelled memory in bytes.

    Components call :meth:`allocate` when a tuple enters a tracked container
    (operator state, blacklist, MNS buffer, inter-operator queue) and
    :meth:`release` when it leaves.  Per-category breakdowns make it possible
    to attribute the peak to states vs. JIT structures.
    """

    def __init__(self) -> None:
        self.current_bytes: int = 0
        self.peak_bytes: int = 0
        self.by_category: Dict[str, int] = {}
        self.peak_by_category: Dict[str, int] = {}

    def allocate(self, nbytes: int, category: str = "state") -> None:
        """Record that ``nbytes`` entered the container category ``category``."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate a negative size: {nbytes}")
        self.current_bytes += nbytes
        self.by_category[category] = self.by_category.get(category, 0) + nbytes
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes
        if self.by_category[category] > self.peak_by_category.get(category, 0):
            self.peak_by_category[category] = self.by_category[category]

    def release(self, nbytes: int, category: str = "state") -> None:
        """Record that ``nbytes`` left the container category ``category``."""
        if nbytes < 0:
            raise ValueError(f"cannot release a negative size: {nbytes}")
        self.current_bytes -= nbytes
        self.by_category[category] = self.by_category.get(category, 0) - nbytes
        if self.current_bytes < 0 or self.by_category[category] < 0:
            raise RuntimeError(
                "memory accounting underflow: more bytes released than allocated "
                f"(category={category!r})"
            )

    @property
    def peak_kb(self) -> float:
        """Peak memory in kilobytes (the unit of the paper's figures)."""
        return self.peak_bytes / 1024.0

    def reset(self) -> None:
        """Zero the model (used between experiment runs)."""
        self.current_bytes = 0
        self.peak_bytes = 0
        self.by_category = {}
        self.peak_by_category = {}

    def __repr__(self) -> str:
        return f"MemoryModel(current={self.current_bytes}B, peak={self.peak_bytes}B)"


@dataclass
class MetricsReport:
    """Immutable summary of one execution run, used by the experiment harness."""

    cpu_units: float
    peak_memory_bytes: int
    wall_seconds: float
    counters: Mapping[str, int] = field(default_factory=dict)
    peak_memory_by_category: Mapping[str, int] = field(default_factory=dict)
    results_produced: int = 0

    @classmethod
    def from_models(
        cls, cost: CostModel, memory: MemoryModel, results_produced: int = 0
    ) -> "MetricsReport":
        """Snapshot the given models into a report."""
        return cls(
            cpu_units=cost.cpu_units,
            peak_memory_bytes=memory.peak_bytes,
            wall_seconds=cost.wall_seconds,
            counters=cost.snapshot(),
            peak_memory_by_category=dict(memory.peak_by_category),
            results_produced=results_produced,
        )

    @property
    def peak_memory_kb(self) -> float:
        """Peak memory in kilobytes."""
        return self.peak_memory_bytes / 1024.0
