"""Plan builders for the paper's plan shapes (Table II).

The evaluation section runs every query twice — with and without JIT — over
two families of binary join trees (bushy and left-deep).  The builders here
construct those trees from a :class:`~repro.plans.query.ContinuousQuery`:

* :func:`build_xjoin_plan` -- a tree of binary window joins (an X-Join plan
  [11]); the ``strategy`` argument selects REF, JIT or DOE operators, and the
  ``shape`` argument selects left-deep, right-deep or bushy trees or a custom
  nested-tuple shape.
* :func:`paper_plan_shape` -- the exact shapes listed in Table II.
* :func:`build_overlay_plan` -- the private selections / projection that sit
  above a join subtree shared between queries.

The builders also install the JIT plumbing that depends on the global plan
structure: each JIT join's ``depth_to_root`` (used by the EXACT retention
policy) and the source routing table of the resulting
:class:`~repro.plans.plan.ExecutionPlan`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import JITConfig
from repro.core.jit_join import JITJoinOperator
from repro.operators.base import PORT_INPUT, PORT_LEFT, PORT_RIGHT, Operator
from repro.operators.join import BinaryJoinOperator
from repro.operators.projection import ProjectionOperator
from repro.operators.selection import SelectionOperator
from repro.plans.plan import ExecutionPlan
from repro.plans.query import ContinuousQuery

__all__ = [
    "PLAN_LEFT_DEEP",
    "PLAN_RIGHT_DEEP",
    "PLAN_BUSHY",
    "STRATEGY_REF",
    "STRATEGY_JIT",
    "STRATEGY_DOE",
    "paper_plan_shape",
    "resolve_jit_config",
    "build_xjoin_plan",
    "build_overlay_plan",
]

#: Left-deep tree: ``(((A ⋈ B) ⋈ C) ⋈ D) ...`` (Table II, right column).
PLAN_LEFT_DEEP = "left_deep"
#: Right-deep tree: ``A ⋈ (B ⋈ (C ⋈ D)) ...``.
PLAN_RIGHT_DEEP = "right_deep"
#: Balanced bushy tree as in Table II's left column.
PLAN_BUSHY = "bushy"

#: Conventional execution (the paper's REF baseline).
STRATEGY_REF = "ref"
#: Just-in-time processing (the paper's contribution).
STRATEGY_JIT = "jit"
#: Demand-driven operator execution [21] (Ø-only JIT).
STRATEGY_DOE = "doe"

#: A plan shape: either a source name or a pair of shapes.
ShapeNode = Union[str, Tuple["ShapeNode", "ShapeNode"]]


def paper_plan_shape(sources: Sequence[str], kind: str) -> ShapeNode:
    """Return the Table II plan shape for the given sources.

    Bushy shapes pair sources left to right and then pair the results, which
    reproduces the paper's ``((A B)(C D))((E F)(G H))`` style trees; left- and
    right-deep shapes chain the joins.
    """
    names: List[ShapeNode] = list(sources)
    if len(names) < 2:
        raise ValueError("a join plan needs at least two sources")
    if kind == PLAN_LEFT_DEEP:
        shape: ShapeNode = names[0]
        for name in names[1:]:
            shape = (shape, name)
        return shape
    if kind == PLAN_RIGHT_DEEP:
        shape = names[-1]
        for name in reversed(names[:-1]):
            shape = (name, shape)
        return shape
    if kind == PLAN_BUSHY:
        level: List[ShapeNode] = names
        while len(level) > 1:
            paired: List[ShapeNode] = []
            i = 0
            while i + 1 < len(level):
                paired.append((level[i], level[i + 1]))
                i += 2
            if i < len(level):
                # An odd element is carried to the next level unpaired, which
                # reproduces Table II's shapes: ((A B)(C D)) E for N=5 and
                # ((A B)(C D)) ((E F) G) for N=7.
                paired.append(level[i])
            level = paired
        return level[0]
    raise ValueError(f"unknown plan kind {kind!r}; expected one of "
                     f"{(PLAN_LEFT_DEEP, PLAN_RIGHT_DEEP, PLAN_BUSHY)}")


def _shape_sources(shape: ShapeNode) -> List[str]:
    if isinstance(shape, str):
        return [shape]
    left, right = shape
    return _shape_sources(left) + _shape_sources(right)


def resolve_jit_config(
    strategy: str, jit_config: Optional[JITConfig]
) -> Optional[JITConfig]:
    """The configuration a join built under ``strategy`` carries.

    REF carries none, DOE forces its preset, and JIT defaults to
    ``JITConfig()`` when none is given.  The operators the builder makes and
    :func:`~repro.plans.signature.subplan_signature` both read it from here.
    """
    if strategy == STRATEGY_REF:
        return None
    if strategy == STRATEGY_DOE:
        return JITConfig.doe()
    if strategy == STRATEGY_JIT:
        return jit_config or JITConfig()
    raise ValueError(
        f"unknown strategy {strategy!r}; expected one of "
        f"{(STRATEGY_REF, STRATEGY_JIT, STRATEGY_DOE)}"
    )


def _make_join(
    name: str,
    left_sources: Sequence[str],
    right_sources: Sequence[str],
    query: ContinuousQuery,
    strategy: str,
    jit_config: Optional[JITConfig],
    use_hash_index: bool,
) -> BinaryJoinOperator:
    config = resolve_jit_config(strategy, jit_config)
    if config is None:
        return BinaryJoinOperator(
            name, left_sources, right_sources, query.predicate, use_hash_index=use_hash_index
        )
    return JITJoinOperator(
        name,
        left_sources,
        right_sources,
        query.predicate,
        config=config,
        use_hash_index=use_hash_index,
    )


def build_xjoin_plan(
    query: ContinuousQuery,
    shape: Union[str, ShapeNode] = PLAN_LEFT_DEEP,
    strategy: str = STRATEGY_REF,
    jit_config: Optional[JITConfig] = None,
    use_hash_index: bool = False,
    apply_selections: bool = True,
    apply_projection: bool = True,
) -> ExecutionPlan:
    """Build an X-Join (binary tree) plan for ``query``.

    Parameters
    ----------
    query:
        The continuous query to plan.
    shape:
        Either one of the shape-kind constants (``PLAN_LEFT_DEEP``,
        ``PLAN_RIGHT_DEEP``, ``PLAN_BUSHY``) or an explicit nested-tuple shape
        such as ``(("A", "B"), ("C", "D"))``.
    strategy:
        ``STRATEGY_REF``, ``STRATEGY_JIT`` or ``STRATEGY_DOE``.
    jit_config:
        Configuration for JIT operators (ignored for REF; overridden by the
        DOE preset for ``STRATEGY_DOE``).
    use_hash_index:
        Build hash indexes on the equi-join keys of every state (the paper's
        experiments use nested loops, so the default is off).
    apply_selections / apply_projection:
        Whether to materialize the query's selections and projection as
        operators above the join tree.
    """
    if isinstance(shape, str) and shape in (PLAN_LEFT_DEEP, PLAN_RIGHT_DEEP, PLAN_BUSHY):
        shape_tree = paper_plan_shape(query.sources, shape)
        shape_label = shape
    else:
        shape_tree = shape  # type: ignore[assignment]
        shape_label = "custom"
    covered = sorted(_shape_sources(shape_tree))
    if covered != sorted(query.sources):
        raise ValueError(
            f"plan shape covers sources {covered} but the query declares {sorted(query.sources)}"
        )

    operators: List[Operator] = []
    routing: Dict[str, List[Tuple[Operator, str]]] = {}
    counter = {"n": 0}

    def build(node: ShapeNode) -> Tuple[Tuple[str, ...], Optional[Operator]]:
        if isinstance(node, str):
            return (node,), None
        left_shape, right_shape = node
        left_sources, left_op = build(left_shape)
        right_sources, right_op = build(right_shape)
        counter["n"] += 1
        join = _make_join(
            f"Op{counter['n']}",
            left_sources,
            right_sources,
            query,
            strategy,
            jit_config,
            use_hash_index,
        )
        operators.append(join)
        for port, child_op, child_sources in (
            (PORT_LEFT, left_op, left_sources),
            (PORT_RIGHT, right_op, right_sources),
        ):
            if child_op is not None:
                join.connect_producer(port, child_op)
            else:
                (source,) = child_sources
                join.connect_source(port, source)
                routing.setdefault(source, []).append((join, port))
        return tuple(left_sources) + tuple(right_sources), join

    _sources, root = build(shape_tree)
    assert root is not None

    # Optional selections / projection above the join tree.
    top: Operator = root
    if apply_selections:
        for index, selection in enumerate(query.selections, start=1):
            sel = SelectionOperator(
                f"Sel{index}",
                selection,
                sources=frozenset(top.output_sources()),
                jit_feedback=strategy != STRATEGY_REF,
            )
            sel.connect_producer(PORT_INPUT, top)
            operators.append(sel)
            top = sel
    if apply_projection and query.projection:
        proj = ProjectionOperator("Project", query.projection)
        proj.connect_producer(PORT_INPUT, top)
        operators.append(proj)
        top = proj

    _assign_depths(root)

    return ExecutionPlan(
        root=top,
        operators=tuple(operators),
        routing={src: tuple(targets) for src, targets in routing.items()},
        description=f"xjoin/{shape_label}/{strategy}/N={query.n_sources}",
    )


def build_overlay_plan(
    query: ContinuousQuery,
    strategy: str = STRATEGY_REF,
) -> Optional[ExecutionPlan]:
    """Build the per-query operators that sit *above* a shared join subtree.

    The sharing layer (:mod:`repro.multi.shard`) executes the join subtree of
    a signature group once and keeps each subscriber's selections and
    projection private; this builds exactly that private chain — the same
    ``Sel1..SelK`` / ``Project`` operators, in the same order, as
    :func:`build_xjoin_plan` would stack on a dedicated join tree — as a
    standalone plan with an empty routing table (its input arrives from the
    shared tee, not from raw sources).  Returns ``None`` when the query has
    neither selections nor projection: such subscribers take the shared
    output directly.
    """
    operators: List[Operator] = []
    top: Optional[Operator] = None
    covered = frozenset(query.sources)
    for index, selection in enumerate(query.selections, start=1):
        sel = SelectionOperator(
            f"Sel{index}",
            selection,
            sources=covered,
            jit_feedback=strategy != STRATEGY_REF,
        )
        if top is not None:
            sel.connect_producer(PORT_INPUT, top)
        operators.append(sel)
        top = sel
    if query.projection:
        proj = ProjectionOperator("Project", query.projection)
        if top is not None:
            proj.connect_producer(PORT_INPUT, top)
        operators.append(proj)
        top = proj
    if top is None:
        return None
    return ExecutionPlan(
        root=top,
        operators=tuple(operators),
        routing={},
        description=f"overlay/{strategy}/N={query.n_sources}",
    )


def _assign_depths(root: Operator) -> None:
    """Set ``depth_to_root`` on every JIT join (root join = 1, children deeper)."""

    def walk(operator: Operator, depth: int) -> None:
        if isinstance(operator, JITJoinOperator):
            operator.depth_to_root = depth
        if isinstance(operator, BinaryJoinOperator):
            next_depth = depth + 1
            for port in operator.ports:
                child = operator.producer_of(port)
                if child is not None:
                    walk(child, next_depth)
        else:
            for port in getattr(operator, "ports", ()):  # unary wrappers
                child = operator.producers.get(port)
                if child is not None:
                    walk(child, depth)

    walk(root, 1)

