"""MNS detection on the consumer side (Section IV-A).

Two detectors are provided:

* :class:`LatticeMNSDetector` — the full ``Identify_MNS`` algorithm
  (Figure 8) over the CNS lattice, driven by the consumer's probe.  On a
  nested-loop join each component is first *settled* by an existence lookup
  in the opposite state's index on its conditions (:meth:`MNSDetector.settle`);
  what no lookup answers — nodes above level 1 — the join computes, for
  every opposite-state tuple it visits, for the components some alive node
  still contains, and feeds those outcomes to the detector; once every
  node is dead or settled the probe is REF's (docs/JIT.md, "Where a scan
  starts and stops").  A hash-indexed join
  visits only the tuples that match at least one component, since a tuple
  matching none kills no lattice node (docs/JIT.md, "Just-in-time state
  indexes").
* :class:`EmptyStateDetector` — detects nothing beyond the Ø case (which the
  consumer handles before probing); with it, JIT degenerates to the DOE
  baseline [21].

The paper's Bloom-filter alternative is not implemented: a filter answers
"might an opposite entry match this component?" approximately and must be
updated on every insert and removal, while the settling lookup answers it
exactly from an index built only when asked (docs/JIT.md, "When detection
pays", measures the two over Figures 10-17).

The Ø MNS (opposite state empty) is detected by the consumer itself before
the probe, independently of the configured detector, because every detector
shares that rule (Figure 8, line 2).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.context import ExecutionContext
from repro.core.cns_lattice import CNSLattice
from repro.core.config import DetectionMode, JITConfig
from repro.core.signature import MNSSignature
from repro.streams.tuples import StreamTuple

__all__ = [
    "MNSDetector",
    "LatticeMNSDetector",
    "EmptyStateDetector",
    "build_detector",
]


class MNSDetector:
    """Base class of consumer-side MNS detectors for one input port.

    Parameters
    ----------
    components:
        Source names of the port's components that appear in the consumer's
        local conditions (the candidate components of the CNS lattice).
    attr_pairs_by_source:
        For each component source, the ``(source, attribute)`` pairs of its
        join attributes checked against the opposite side — these become the
        signature items of a detected MNS.
    context:
        Shared execution context (cost accounting).
    """

    def __init__(
        self,
        components: Sequence[str],
        attr_pairs_by_source: Mapping[str, Sequence[Tuple[str, str]]],
        context: ExecutionContext,
    ) -> None:
        self.components = tuple(sorted(set(components)))
        self.attr_pairs_by_source = {
            source: tuple(pairs) for source, pairs in attr_pairs_by_source.items()
        }
        self.context = context

    # -- probe-integrated protocol ------------------------------------------------

    #: The components whose match outcome :meth:`observe` can still use, in
    #: component order.  While it is non-empty the probe computes exactly
    #: these outcomes per opposite tuple and calls :meth:`observe`; once it
    #: is empty the probe is the detector-free one.  Only the lattice
    #: detector ever asks for outcomes.
    pending: Tuple[str, ...] = ()

    def start(self, tup: StreamTuple) -> None:
        """Begin detection for a new input tuple."""

    def settle(
        self, tup: StreamTuple, matched: Callable[[str], Optional[bool]]
    ) -> Tuple[str, ...]:
        """Settle :attr:`pending` components by lookup, before the probe.

        ``matched(component)`` says whether any opposite entry the probe is
        about to visit matches the component, or None where no index answers
        that.  Returns the components found unmatched: their outcome is False
        for every one of those entries, so the probe need not compute it.
        They stay pending, since an entry that arrives later (a resumed
        partial result) can still match them.
        """
        return ()

    def observe(self, tup: StreamTuple, matches: Mapping[str, bool]) -> None:
        """Record the match outcome of every :attr:`pending` component against
        one opposite tuple.

        An outcome with no matching component may be left out: it must not
        change what :meth:`finish` returns.
        """

    def finish(self, tup: StreamTuple) -> List[MNSSignature]:
        """Return the MNS signatures detected for ``tup`` (opposite state non-empty)."""
        return []

    # -- helpers -----------------------------------------------------------------------

    def signature_for(self, tup: StreamTuple, sources: FrozenSet[str]) -> MNSSignature:
        """Build the MNS signature of ``tup``'s sub-tuple over ``sources``."""
        pairs: List[Tuple[str, str]] = []
        for source in sources:
            pairs.extend(self.attr_pairs_by_source.get(source, ()))
        return MNSSignature.from_components(tup, tuple(sorted(sources)), pairs)


class LatticeMNSDetector(MNSDetector):
    """``Identify_MNS`` over the CNS lattice, driven by the consumer's probe."""

    def __init__(
        self,
        components: Sequence[str],
        attr_pairs_by_source: Mapping[str, Sequence[Tuple[str, str]]],
        context: ExecutionContext,
        max_arity: int = 1,
    ) -> None:
        super().__init__(components, attr_pairs_by_source, context)
        self.lattice = CNSLattice(self.components, max_level=max_arity)

    def start(self, tup: StreamTuple) -> None:
        self.lattice.reset()
        self.pending = self.lattice.pending

    def settle(
        self, tup: StreamTuple, matched: Callable[[str], Optional[bool]]
    ) -> Tuple[str, ...]:
        """A matched component is observed as an entry that matches it
        alone: that kills its level-1 node and nothing above it, whose
        components may have matched different entries."""
        unmatched: List[str] = []
        for component in self.pending:
            found = matched(component)
            if found:
                self.observe(tup, {c: c == component for c in self.pending})
            elif found is not None:
                unmatched.append(component)
        return tuple(unmatched)

    def observe(self, tup: StreamTuple, matches: Mapping[str, bool]) -> None:
        self.lattice.observe(matches, cost=self.context.cost)
        self.pending = self.lattice.pending

    def finish(self, tup: StreamTuple) -> List[MNSSignature]:
        return [
            self.signature_for(tup, sources)
            for sources in self.lattice.surviving_mns(cost=self.context.cost)
        ]


class EmptyStateDetector(MNSDetector):
    """Detects no MNSs beyond Ø; JIT with this detector behaves like DOE [21]."""

    def finish(self, tup: StreamTuple) -> List[MNSSignature]:
        return []


def build_detector(
    config: JITConfig,
    components: Sequence[str],
    attr_pairs_by_source: Mapping[str, Sequence[Tuple[str, str]]],
    context: ExecutionContext,
) -> Optional[MNSDetector]:
    """Build the detector requested by ``config`` for one consumer input port.

    Returns None when detection is disabled or there are no candidate
    components (e.g. a cross join).
    """
    if config.detection_mode == DetectionMode.NONE or not components:
        return None
    if config.detection_mode == DetectionMode.LATTICE:
        return LatticeMNSDetector(
            components, attr_pairs_by_source, context, max_arity=config.max_mns_arity
        )
    if config.detection_mode == DetectionMode.EMPTY_ONLY:
        return EmptyStateDetector(components, attr_pairs_by_source, context)
    raise ValueError(f"unhandled detection mode {config.detection_mode!r}")
