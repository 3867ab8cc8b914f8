"""Selection operator, optionally acting as a JIT consumer.

Section V of the paper (Figure 9a) shows that a consumer does not have to be
a join to benefit from JIT: a selection ``σ A.x > 200`` placed above a join
can detect that an input's ``A`` component will *never* satisfy the predicate
and tell the producer to stop generating super-tuples of it.  Unlike join
consumers, a selection never issues a resumption — the predicate compares
against constants — so the feedback is *permanent* and the producer may simply
delete the affected tuples instead of blacklisting them.  A selection is a
consumer only: it does not control production, so a selection stacked on
another sends no feedback.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.metrics import CostKind
from repro.operators.base import PORT_INPUT, UnaryOperator
from repro.operators.predicates import AttributeCompare, SelectionPredicate
from repro.streams.tuples import StreamTuple

__all__ = ["SelectionOperator"]


class SelectionOperator(UnaryOperator):
    """Filter tuples by a conjunction of constant comparisons.

    Parameters
    ----------
    name:
        Operator name.
    predicate:
        The selection predicate (e.g. ``A.x > 200``).
    sources:
        Sources covered by the operator's input (and output) tuples.
    jit_feedback:
        When True and the input is fed by a production-controlling producer,
        a failing tuple triggers a *permanent* suspension feedback naming the
        components responsible for the failure, so the producer stops
        generating similar tuples (Figure 9a behaviour).
    """

    def __init__(
        self,
        name: str,
        predicate: SelectionPredicate,
        sources: Optional[FrozenSet[str]] = None,
        jit_feedback: bool = False,
    ) -> None:
        super().__init__(name)
        self.predicate = predicate
        self._sources = frozenset(sources) if sources is not None else predicate.sources
        self.jit_feedback = jit_feedback
        self.passed = 0
        self.rejected = 0

    def output_sources(self) -> FrozenSet[str]:
        return self._sources

    def process(self, tup: StreamTuple, port: str) -> None:
        """Evaluate the predicate; emit on success, optionally feed back on failure."""
        self._check_port(port)
        context = self.require_context()
        failing: List[AttributeCompare] = []
        ok = True
        for comparison in self.predicate.comparisons:
            context.cost.charge(CostKind.PREDICATE_EVAL)
            if not comparison.evaluate(tup):
                ok = False
                failing.append(comparison)
                # Keep evaluating so the feedback can name every failing
                # component; the extra comparisons are charged honestly.
        if ok:
            self.passed += 1
            self.emit(tup)
            return
        self.rejected += 1
        if self.jit_feedback:
            self._send_permanent_suspension(tup, failing)

    def _send_permanent_suspension(
        self, tup: StreamTuple, failing: List[AttributeCompare]
    ) -> None:
        """Tell the producer to permanently stop super-tuples of the failing parts."""
        producer = self.producer_of(PORT_INPUT)
        if producer is None or not producer.supports_production_control():
            return
        # Imported lazily to avoid a circular import with the JIT core, which
        # imports operator base classes from this package.
        from repro.core.feedback import Feedback
        from repro.core.signature import MNSSignature

        signatures = []
        for comparison in failing:
            source = comparison.ref.source
            if not tup.covers(source):
                continue
            signatures.append(
                MNSSignature.from_components(
                    tup,
                    (source,),
                    ((source, comparison.ref.attribute),),
                )
            )
        if not signatures:
            return
        self.require_context().cost.charge(CostKind.FEEDBACK_MESSAGE)
        producer.handle_feedback(
            Feedback.suspend(tuple(signatures), permanent=True), self
        )

    def __repr__(self) -> str:
        return f"SelectionOperator({self.name!r}: σ {self.predicate})"
