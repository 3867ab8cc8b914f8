"""Canonical sub-plan signatures for multi-query common subexpression sharing.

Two registered queries can share one physical join subtree exactly when the
subtree they would build is *operationally identical*: same resolved tree
shape over the same sources, same window length, the same conjunction of
join conditions, the same execution strategy with the same JIT configuration,
and the same indexing choice.  :func:`subplan_signature` reduces a query's
physical registration to a hashable canonical tuple with that property, so
the sharding layer can catalog hosted subtrees by signature and graft later
registrations onto them (see ``docs/SHARING.md``).

Canonicalization rules:

* The plan *shape* is resolved first (named shapes go through
  :func:`~repro.plans.builder.paper_plan_shape`), so ``"left_deep"`` over
  ``(A, B, C)`` and the explicit ``(("A", "B"), "C")`` tuple collapse to the
  same signature — they build the same operator tree.
* Join conditions are order-independent (a conjunction) and symmetric
  (``A.x = B.y`` is ``B.y = A.x``), so each condition is normalized to put
  its lexicographically smaller attribute reference first and the
  conjunction is sorted.  Multiplicity is preserved: a (redundant) duplicated condition
  changes per-probe cost, and the conservative choice is not to merge it.
* The JIT configuration is the one the plan builder installs
  (:func:`~repro.plans.builder.resolve_jit_config`: REF carries none, DOE
  forces its preset, JIT defaults to ``JITConfig()``), so ``jit_config=None``
  and an explicit ``JITConfig()`` registration share.

Selections are deliberately *excluded*: the sharing layer keeps them in
per-query private overlay plans above the shared subtree, so queries
differing only in their filters still share the expensive joins.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Optional, Tuple, Union
import zlib

from repro.core.config import JITConfig
from repro.operators.predicates import JoinCondition
from repro.plans.builder import (
    PLAN_BUSHY,
    PLAN_LEFT_DEEP,
    PLAN_RIGHT_DEEP,
    STRATEGY_REF,
    ShapeNode,
    paper_plan_shape,
    resolve_jit_config,
)
from repro.plans.query import ContinuousQuery

__all__ = [
    "SubplanSignature",
    "subplan_signature",
    "signature_key",
    "canonical_condition",
    "resolve_jit_config",
]

#: A canonical sub-plan signature: a plain hashable tuple.
SubplanSignature = Tuple

_NAMED_SHAPES = (PLAN_LEFT_DEEP, PLAN_RIGHT_DEEP, PLAN_BUSHY)


def canonical_condition(condition: JoinCondition) -> Tuple:
    """Reduce one join condition to ``("eq", lo_ref, hi_ref)``, its sides sorted."""
    left, right = condition.left, condition.right
    lo, hi = sorted(((left.source, left.attribute), (right.source, right.attribute)))
    return ("eq", lo, hi)


def subplan_signature(
    query: ContinuousQuery,
    shape: Union[str, ShapeNode] = PLAN_LEFT_DEEP,
    strategy: str = STRATEGY_REF,
    jit_config: Optional[JITConfig] = None,
    use_hash_index: bool = False,
) -> SubplanSignature:
    """The canonical signature of the join subtree these choices would build.

    Everything that affects *which tuples the subtree emits in which
    internal state* is included; everything kept in per-query overlays
    (selections) is excluded.  Equal signatures guarantee the
    built subtrees are operationally identical, so one shared instance can
    serve every subscriber with bit-identical per-query results.
    """
    if isinstance(shape, str) and shape in _NAMED_SHAPES:
        shape_tree: ShapeNode = paper_plan_shape(query.sources, shape)
    else:
        shape_tree = shape  # explicit nested-tuple shape, already canonical
    config = resolve_jit_config(strategy, jit_config)
    return (
        "xjoin",
        shape_tree,
        query.window.length,
        tuple(sorted(canonical_condition(c) for c in query.predicate.conditions)),
        strategy,
        None if config is None else astuple(config),
        bool(use_hash_index),
    )


def signature_key(signature: SubplanSignature) -> str:
    """A short stable hex digest of a signature, for names and diagnostics.

    Uses CRC32 of the signature's repr rather than ``hash()`` so keys are
    reproducible across interpreter runs (queue names built from them show
    up in error messages and test assertions).
    """
    return f"{zlib.crc32(repr(signature).encode('utf-8')) & 0xFFFFFFFF:08x}"
