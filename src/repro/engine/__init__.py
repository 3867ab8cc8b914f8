"""Execution engine: drives a plan over a workload and reports metrics.

* :mod:`repro.engine.results` -- result collection and temporal-order checks.
* :mod:`repro.engine.engine` -- :class:`ExecutionEngine`, the synchronous
  (depth-first push) setting of Section III-B that the figure benchmarks
  run, and the queue wiring and drain loop with which
  :class:`~repro.multi.shard.ShardEngine` runs the queued setting.
"""

from repro.engine.engine import (
    ExecutionEngine,
    RunReport,
    run_workload,
)
from repro.engine.results import ResultCollector, result_key, result_multiset

__all__ = [
    "ExecutionEngine",
    "RunReport",
    "run_workload",
    "ResultCollector",
    "result_key",
    "result_multiset",
]
