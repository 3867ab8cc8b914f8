"""Query plans: query descriptions, plan containers and plan builders.

* :mod:`repro.plans.query` -- declarative description of a continuous query
  (sources, window, join predicate, optional selections).
* :mod:`repro.plans.plan` -- :class:`ExecutionPlan`, the wired operator tree
  plus source routing, ready to be driven by the execution engine.
* :mod:`repro.plans.builder` -- builders for the plan shapes of Table II
  (left-deep, right-deep, bushy) with REF, JIT or DOE operators.
* :mod:`repro.plans.cql` -- a small CQL-style front end for queries of the
  form shown in Figure 1a.
* :mod:`repro.plans.signature` -- canonical sub-plan signatures used by the
  multi-query sharing layer to detect common join subtrees.
"""

from repro.plans.query import ContinuousQuery
from repro.plans.plan import ExecutionPlan
from repro.plans.builder import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    PLAN_RIGHT_DEEP,
    build_overlay_plan,
    build_xjoin_plan,
    paper_plan_shape,
)
from repro.plans.cql import parse_cql
from repro.plans.signature import signature_key, subplan_signature

__all__ = [
    "ContinuousQuery",
    "ExecutionPlan",
    "PLAN_BUSHY",
    "PLAN_LEFT_DEEP",
    "PLAN_RIGHT_DEEP",
    "build_xjoin_plan",
    "build_overlay_plan",
    "paper_plan_shape",
    "parse_cql",
    "subplan_signature",
    "signature_key",
]
