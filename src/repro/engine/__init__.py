"""Execution engine: drives a plan over a workload and reports metrics.

* :mod:`repro.engine.results` -- result collection and temporal-order checks.
* :mod:`repro.engine.engine` -- :class:`ExecutionEngine`, supporting the
  synchronous (depth-first push) mode used by the figure benchmarks and the
  queued mode with a pluggable operator scheduler (Section III-B).
"""

from repro.engine.engine import (
    ExecutionEngine,
    ExecutionMode,
    RunReport,
    run_workload,
)
from repro.engine.results import ResultCollector, result_key, result_multiset

__all__ = [
    "ExecutionEngine",
    "ExecutionMode",
    "RunReport",
    "run_workload",
    "ResultCollector",
    "result_key",
    "result_multiset",
]
