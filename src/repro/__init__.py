"""repro — a reproduction of "Just-In-Time Processing of Continuous Queries".

This package reimplements, in pure Python, the data stream management system
(DSMS) substrate and the Just-In-Time (JIT) query-processing technique of
Yang & Papadias (ICDE 2008), together with the REF baseline, the DOE
baseline (JIT with Ø-only detection, ``JITConfig.doe()``) and the full
experimental harness needed to regenerate the paper's evaluation figures.

Quickstart::

    from repro import (
        generate_clique_workload, ContinuousQuery,
        build_xjoin_plan, run_workload, PLAN_BUSHY, STRATEGY_JIT,
    )

    workload = generate_clique_workload(
        n_sources=4, rate=1.0, window_seconds=120, dmax=100, duration=300, seed=7
    )
    query = ContinuousQuery.from_workload(workload)
    plan = build_xjoin_plan(query, shape=PLAN_BUSHY, strategy=STRATEGY_JIT)
    report = run_workload(plan, workload.events(), window_length=workload.window.length)
    print(report.summary())

See ``docs/JIT.md`` for the design notes of the JIT join, ``docs/SCALING.md``
for the sharded multi-query engine and ``benchmarks/bench_figures.py`` /
``benchmarks/BENCH_figures.json`` for the committed figure numbers and the
scale they were measured at.
"""

from repro.context import ExecutionContext
from repro.metrics import CostKind, CostModel, CostWeights, MemoryModel, MetricsReport
from repro.streams import (
    AtomicTuple,
    CliqueJoinWorkload,
    CompositeTuple,
    PoissonArrivals,
    SourceSchema,
    StreamCatalog,
    StreamSource,
    Window,
    generate_clique_workload,
)
from repro.operators import (
    AttributeRef,
    BinaryJoinOperator,
    EquiJoinCondition,
    JoinPredicate,
    SelectionOperator,
    SelectionPredicate,
)
from repro.core import (
    Blacklist,
    CNSLattice,
    DetectionMode,
    Feedback,
    JITConfig,
    JITJoinOperator,
    MNSBuffer,
    MNSSignature,
    RetentionPolicy,
)
from repro.plans import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    PLAN_RIGHT_DEEP,
    ContinuousQuery,
    ExecutionPlan,
    build_xjoin_plan,
    parse_cql,
)
from repro.plans.builder import STRATEGY_DOE, STRATEGY_JIT, STRATEGY_REF
from repro.engine import ExecutionEngine, ExecutionMode, ResultCollector, RunReport, run_workload
from repro.multi import (
    MultiRunReport,
    QueryRegistry,
    ShardedEngine,
    SharedVirtualClock,
    generate_multi_query_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # context & metrics
    "ExecutionContext",
    "CostKind",
    "CostModel",
    "CostWeights",
    "MemoryModel",
    "MetricsReport",
    # streams
    "AtomicTuple",
    "CompositeTuple",
    "SourceSchema",
    "StreamCatalog",
    "StreamSource",
    "PoissonArrivals",
    "Window",
    "CliqueJoinWorkload",
    "generate_clique_workload",
    # operators
    "AttributeRef",
    "EquiJoinCondition",
    "JoinPredicate",
    "SelectionPredicate",
    "BinaryJoinOperator",
    "SelectionOperator",
    # JIT core
    "JITConfig",
    "DetectionMode",
    "RetentionPolicy",
    "JITJoinOperator",
    "MNSSignature",
    "Feedback",
    "MNSBuffer",
    "Blacklist",
    "CNSLattice",
    # plans
    "ContinuousQuery",
    "ExecutionPlan",
    "PLAN_BUSHY",
    "PLAN_LEFT_DEEP",
    "PLAN_RIGHT_DEEP",
    "STRATEGY_REF",
    "STRATEGY_JIT",
    "STRATEGY_DOE",
    "build_xjoin_plan",
    "parse_cql",
    # engine
    "ExecutionEngine",
    "ExecutionMode",
    "RunReport",
    "ResultCollector",
    "run_workload",
    # sharded multi-query engine
    "QueryRegistry",
    "ShardedEngine",
    "MultiRunReport",
    "SharedVirtualClock",
    "generate_multi_query_workload",
]
