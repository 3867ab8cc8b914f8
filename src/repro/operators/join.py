"""The baseline binary sliding-window join (the paper's REF execution).

The operator implements the purge-probe-insert routine of Kang et al. [16],
the "state-of-the-art binary join algorithm" the paper builds on (Section II):
an incoming tuple first purges the opposite state of expired tuples, then
probes it — with a nested loop by default, optionally through a hash index on
the equi-join key — emitting one composite result per match, and is finally
inserted into its own state.

:class:`BinaryJoinOperator` is deliberately free of any JIT logic; it is the
producer/consumer building block of the REF baseline and the superclass of
:class:`repro.core.jit_join.JITJoinOperator`, which layers the feedback
mechanism on top.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from repro.metrics import CostKind
from repro.operators.base import PORT_LEFT, PORT_RIGHT, Operator
from repro.operators.predicates import JoinCondition, JoinPredicate
from repro.operators.state import IndexKey, IndexTemplate, OperatorState, StateEntry, key_function
from repro.streams.tuples import StreamTuple, join_tuples

__all__ = ["BinaryJoinOperator", "IndexLookup", "opposite_port"]


def opposite_port(port: str) -> str:
    """Return the other port of a binary operator."""
    if port == PORT_LEFT:
        return PORT_RIGHT
    if port == PORT_RIGHT:
        return PORT_LEFT
    raise KeyError(f"not a binary-join port: {port!r}")


class IndexLookup:
    """How tuples of one side hash-probe the other through some equi conditions.

    ``template`` is the probed side of each condition — an index of the
    probed state — and ``own_key`` computes a probing tuple's key from the
    probing side of each, in the same condition order, so that it meets its
    partners' key under ``template``.
    """

    __slots__ = ("template", "own_key")

    def __init__(self, conditions: Sequence[JoinCondition], probed_sources: FrozenSet[str]) -> None:
        template, own = [], []
        for cond in conditions:
            probed, other = cond.left, cond.right
            if probed.source not in probed_sources:
                probed, other = other, probed
            template.append((probed.source, probed.attribute))
            own.append((other.source, other.attribute))
        self.template: IndexTemplate = tuple(template)
        self.own_key = key_function(tuple(own))

    def probe(self, tup: StreamTuple) -> Tuple[IndexTemplate, IndexKey]:
        """The ``(template, key)`` lookup that finds ``tup``'s partners."""
        return self.template, self.own_key(tup)


class BinaryJoinOperator(Operator):
    """A sliding-window equi-join between two inputs.

    Parameters
    ----------
    name:
        Operator name (``"Op1"``, ...).
    left_sources / right_sources:
        The sets of stream sources covered by the tuples arriving on the left
        and right port respectively.  For the plan of Figure 1b, ``Op2`` has
        ``left_sources={"A", "B"}`` and ``right_sources={"C"}``.
    predicate:
        The query's full join predicate.  The operator evaluates the subset of
        conditions that straddle its two inputs; conditions internal to one
        side were already enforced upstream.
    use_hash_index:
        When True, each state keeps a hash index on its side of the equi-join
        key and probes use it instead of a nested loop.  The paper's
        experiments use nested loops (its Section VI states "all joins are
        implemented using the nested loop algorithm"), so this defaults to
        False.
    """

    def __init__(
        self,
        name: str,
        left_sources: Iterable[str],
        right_sources: Iterable[str],
        predicate: JoinPredicate,
        use_hash_index: bool = False,
    ) -> None:
        super().__init__(name)
        self.left_sources = frozenset(left_sources)
        self.right_sources = frozenset(right_sources)
        if not self.left_sources or not self.right_sources:
            raise ValueError(f"join {name!r} needs non-empty source sets on both sides")
        if self.left_sources & self.right_sources:
            raise ValueError(
                f"join {name!r} input source sets overlap: "
                f"{sorted(self.left_sources & self.right_sources)}"
            )
        self.predicate = predicate
        self.local_conditions: Tuple[JoinCondition, ...] = predicate.conditions_between(
            self.left_sources, self.right_sources
        )
        self.use_hash_index = use_hash_index
        self.states: dict = {}
        #: Per probed port, the lookup on the full equi-join key (hash-indexed
        #: joins with at least one local condition only).
        self._key_lookups: Dict[str, IndexLookup] = {}
        #: Total number of join results this operator has constructed.
        self.results_built = 0

    # -- wiring ------------------------------------------------------------------

    @property
    def ports(self) -> Tuple[str, ...]:
        return (PORT_LEFT, PORT_RIGHT)

    def output_sources(self) -> FrozenSet[str]:
        return self.left_sources | self.right_sources

    def input_sources(self, port: str) -> FrozenSet[str]:
        self._check_port(port)
        return self.left_sources if port == PORT_LEFT else self.right_sources

    # -- lifecycle -----------------------------------------------------------------

    def on_attach(self) -> None:
        context = self.require_context()
        if self.use_hash_index and self.local_conditions:
            self._key_lookups = {
                port: IndexLookup(self.local_conditions, self.input_sources(port))
                for port in self.ports
            }
        self.states = {
            port: OperatorState(
                name=f"S_{''.join(sorted(self.input_sources(port)))}",
                context=context,
                # The equi-join key is the state's first index, kept from the start.
                key_template=self._key_lookups[port].template if self._key_lookups else None,
            )
            for port in self.ports
        }

    def probe_candidates(
        self, tup: StreamTuple, probe_port: str, after_order: int = 0
    ) -> Iterable[StateEntry]:
        """Entries of ``probe_port``'s state eligible to join ``tup``.

        The single place that decides between the hash index and a scan:
        with ``use_hash_index`` only key-equal entries are returned —
        REF-equivalent, since entries with a different key cannot satisfy the
        conditions.  ``after_order`` is :meth:`OperatorState.probe`'s bound
        and only narrows a scan, so callers must still re-check ``removed``
        (and any watermark) per entry, as the probe may mutate the state
        re-entrantly.
        """
        state = self.states[probe_port]
        lookup = self._key_lookups.get(probe_port)
        if lookup is not None:
            return state.probe_index((lookup.probe(tup),))
        return state.probe(after_order)

    # -- processing ---------------------------------------------------------------

    def process(self, tup: StreamTuple, port: str) -> None:
        """Run the purge-probe-insert routine for one input tuple."""
        self._check_port(port)
        self.purge(self.require_context().now)
        self._probe_and_emit(tup, port)
        self.insert_into_state(tup, port)

    def purge(self, now: float) -> None:
        """Purge both states of tuples older than ``now - w``."""
        horizon = self.require_context().window.purge_horizon(now)
        for state in self.states.values():
            state.purge(horizon)

    def insert_into_state(self, tup: StreamTuple, port: str) -> StateEntry:
        """Insert ``tup`` into the state of its own port."""
        return self.states[port].insert(tup)

    def _probe_and_emit(self, tup: StreamTuple, port: str) -> None:
        """Probe the opposite state with ``tup``, emitting every join result.

        Entries removed re-entrantly (by JIT feedback triggered from an
        emission) are skipped.
        """
        window = self.require_context().window
        for entry in self.probe_candidates(tup, opposite_port(port)):
            if entry.removed or not window.joins(tup, entry.tuple):
                continue
            if self.evaluate_conditions(tup, entry.tuple):
                self.emit(self.build_result(tup, entry.tuple))

    def evaluate_conditions(self, a: StreamTuple, b: StreamTuple) -> bool:
        """Evaluate the operator's local conditions over two tuples, with costing."""
        cost = self.require_context().cost
        for cond in self.local_conditions:
            cost.charge(CostKind.PREDICATE_EVAL)
            if not cond.evaluate(a, b):
                return False
        return True

    def build_result(self, a: StreamTuple, b: StreamTuple) -> StreamTuple:
        """Concatenate two matching tuples into a composite result."""
        self.results_built += 1
        return join_tuples(a, b)

    # -- introspection ---------------------------------------------------------------

    @property
    def state_sizes(self) -> Tuple[int, int]:
        """Sizes of the (left, right) states; mainly for tests and diagnostics."""
        return (len(self.states[PORT_LEFT]), len(self.states[PORT_RIGHT]))

    def __repr__(self) -> str:
        left = "".join(sorted(self.left_sources))
        right = "".join(sorted(self.right_sources))
        return f"{type(self).__name__}({self.name!r}: {left} ⋈ {right})"
