"""Execution plans: wired operator trees plus source routing.

An :class:`ExecutionPlan` owns the operators of one query, knows which
operator input port each raw stream feeds, and exposes the root operator
whose output is the query result.  The execution engine drives it by routing
each arriving tuple to its port(s); everything else (probing, emission, JIT
feedback) happens inside the operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.context import ExecutionContext
from repro.operators.base import Operator
from repro.operators.join import BinaryJoinOperator
from repro.streams.tuples import StreamTuple

__all__ = ["ExecutionPlan"]


@dataclass
class ExecutionPlan:
    """A wired operator tree ready for execution.

    Parameters
    ----------
    root:
        The operator whose emissions are the query results.
    operators:
        Every operator in the plan (including the root), in a deterministic
        order (used for diagnostics and memory breakdowns).
    routing:
        For each source name, the list of ``(operator, port)`` pairs its
        arrivals must be delivered to.  X-Join trees deliver each source to
        exactly one port.
    description:
        Human-readable description (plan shape, strategy), used in reports.
    feeds:
        Ports fed by another plan's output rather than by a source, by the
        name of that feed (the sharing layer's tee-fed join ports).
    """

    root: Operator
    operators: Tuple[Operator, ...]
    routing: Dict[str, Tuple[Tuple[Operator, str], ...]]
    description: str = ""
    feeds: Dict[str, Tuple[Operator, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.root not in self.operators:
            raise ValueError("the plan root must be part of the operator list")
        for source, targets in self.routing.items():
            if not targets:
                raise ValueError(f"source {source!r} routes to no operator")
            for operator, port in targets:
                if operator not in self.operators:
                    raise ValueError(
                        f"source {source!r} routes to operator {operator!r} outside the plan"
                    )
                if port not in operator.ports:
                    raise ValueError(
                        f"source {source!r} routes to missing port {port!r} of {operator!r}"
                    )

    # -- lifecycle ----------------------------------------------------------------

    def attach(self, context: ExecutionContext) -> None:
        """Bind every operator to the execution context (builds states)."""
        for operator in self.operators:
            operator.attach(context)

    @property
    def context(self) -> Optional[ExecutionContext]:
        """The context :meth:`attach` bound the plan to, or None."""
        return self.root.context

    def set_result_sink(self, sink: Callable[[StreamTuple], None]) -> None:
        """Install the callable receiving the root operator's emissions."""
        self.root.result_sink = sink

    # -- routing --------------------------------------------------------------------

    @property
    def source_names(self) -> List[str]:
        """All source names the plan consumes."""
        return sorted(self.routing)

    def targets_for(self, source: str) -> Tuple[Tuple[Operator, str], ...]:
        """The ``(operator, port)`` pairs fed by ``source``."""
        try:
            return self.routing[source]
        except KeyError:
            raise KeyError(
                f"plan has no input for source {source!r}; known sources: {self.source_names}"
            ) from None

    def deliver(self, tup: StreamTuple, source: str) -> None:
        """Push one arrival into the plan (synchronous execution)."""
        for operator, port in self.targets_for(source):
            operator.process(tup, port)

    # -- introspection ---------------------------------------------------------------

    @property
    def join_operators(self) -> List[BinaryJoinOperator]:
        """All binary join operators of the plan (REF or JIT)."""
        return [op for op in self.operators if isinstance(op, BinaryJoinOperator)]

    def operator_named(self, name: str) -> Operator:
        """Look up an operator by name."""
        for operator in self.operators:
            if operator.name == name:
                return operator
        raise KeyError(f"no operator named {name!r} in plan")

    def __repr__(self) -> str:
        return f"ExecutionPlan({self.description or self.root.name!r}, operators={len(self.operators)})"
