"""The candidate non-demanded sub-tuple (CNS) lattice of Section IV-A.

For an input tuple ``t`` of a consumer operator, the candidate non-demanded
sub-tuples are all combinations of the components of ``t`` that appear in the
consumer's join predicate (Figure 7 shows the 16-node lattice for the
four-component input of the paper's 5-way example).  The lattice supports the
two properties that ``Identify_MNS`` (Figure 8) exploits:

* (i) if a node is an MNS, none of its ancestors can be one (they are not
  minimal), and
* (ii) a node above level 1 matches an opposite tuple if and only if all of
  its children match it.

The lattice object is reusable across inputs of the same shape: the detector
resets node states, feeds one ``observe`` call per opposite-state tuple with
the match outcomes of the components still pending, and finally asks for the
surviving minimal nodes.  Once every node is dead there is nothing left to
feed: the caller's scan goes on without the lattice.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.metrics import CostKind, CostModel

__all__ = ["LatticeNode", "CNSLattice"]


class LatticeNode:
    """One node of the CNS lattice: a non-empty subset of input components."""

    __slots__ = ("sources", "components", "level", "children")

    def __init__(self, components: Sequence[str], children: Sequence["LatticeNode"]) -> None:
        #: The node's components, in the lattice's (sorted) component order.
        self.components: Tuple[str, ...] = tuple(components)
        self.sources: FrozenSet[str] = frozenset(components)
        self.level = len(self.components)
        self.children: Tuple["LatticeNode", ...] = tuple(children)

    def __repr__(self) -> str:
        return f"LatticeNode({''.join(self.components)})"


class CNSLattice:
    """The CNS lattice over a fixed set of input components.

    A node is alive until it has matched some opposite tuple; a dead node can
    no longer become an MNS, so nothing looks at it again: :meth:`observe`
    visits (and charges) the alive nodes only, and :attr:`pending` names the
    components some alive node still contains — the only ones whose match
    outcome the caller still has to compute.

    Parameters
    ----------
    components:
        Source names of the input-side components that appear in the
        consumer's local join conditions.
    max_level:
        Highest lattice level to materialize.  The paper's algorithm uses the
        full lattice; restricting the level implements the "consumer may
        choose not to detect all MNSs" flexibility and avoids the producer's
        Type II machinery when set to 1.
    """

    def __init__(self, components: Sequence[str], max_level: Optional[int] = None) -> None:
        comps = tuple(sorted(set(components)))
        if not comps:
            raise ValueError("a CNS lattice needs at least one component")
        self.components = comps
        self.max_level = len(comps) if max_level is None else min(max_level, len(comps))
        if self.max_level < 1:
            raise ValueError(f"max_level must be at least 1, got {max_level}")
        self._nodes_by_level: Dict[int, List[LatticeNode]] = {}
        self._node_index: Dict[FrozenSet[str], LatticeNode] = {}
        self._build()
        self.reset()

    def _build(self) -> None:
        for level in range(1, self.max_level + 1):
            nodes: List[LatticeNode] = []
            for subset in combinations(self.components, level):
                children = [
                    self._node_index[frozenset(child)]
                    for child in combinations(subset, level - 1)
                    if level > 1
                ]
                node = LatticeNode(subset, children)
                self._node_index[node.sources] = node
                nodes.append(node)
            self._nodes_by_level[level] = nodes

    # -- basic accessors ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of materialized nodes (excluding Ø)."""
        return len(self._node_index)

    def node(self, sources: Iterable[str]) -> LatticeNode:
        """Look up the node covering exactly ``sources``."""
        key = frozenset(sources)
        try:
            return self._node_index[key]
        except KeyError:
            raise KeyError(f"no lattice node for components {sorted(key)}") from None

    def level_nodes(self, level: int) -> List[LatticeNode]:
        """All nodes of a given level (1-based)."""
        return list(self._nodes_by_level.get(level, []))

    # -- Identify_MNS support ----------------------------------------------------------

    def reset(self) -> None:
        """Mark every node alive, ready to evaluate a new input tuple."""
        #: The alive nodes, level by level; shrinks as nodes die.
        self._alive: List[LatticeNode] = list(self._node_index.values())
        #: Components (in order) that some alive node contains.
        self.pending: Tuple[str, ...] = self.components

    def observe(
        self, matches: Mapping[str, bool], cost: Optional[CostModel] = None
    ) -> None:
        """Process one opposite-state tuple.

        Parameters
        ----------
        matches:
            For each :attr:`pending` component, whether it matched the
            opposite tuple (all conditions relating them hold); other
            components may be left out.  This is computed by the caller,
            which shares the predicate evaluations with its join probe (the
            "combined with a nested loop join" optimization of Section
            IV-A), or stands for an index lookup's answer: a tuple that
            matches one component alone.
        cost:
            Optional cost model charged one lattice-node visit per alive node.

        An alive node matches iff all of its own components do (property
        (ii) read off the components, not off the children: a dead child is
        no longer visited, so it has no outcome for this tuple).
        """
        alive = self._alive
        if not alive:
            return
        if cost is not None:
            cost.charge(CostKind.LATTICE_NODE, len(alive))
        survivors: List[LatticeNode] = []
        for node in alive:
            for component in node.components:
                if not matches[component]:
                    survivors.append(node)
                    break
        if len(survivors) < len(alive):
            self._alive = survivors
            self.pending = tuple(
                c for c in self.components if any(c in node.sources for node in survivors)
            )

    def surviving_mns(self, cost: Optional[CostModel] = None) -> List[FrozenSet[str]]:
        """Return the minimal alive nodes — the MNSs (Lines 11-14 of Figure 8).

        Charges one lattice-node visit per alive node.
        """
        if cost is not None and self._alive:
            cost.charge(CostKind.LATTICE_NODE, len(self._alive))
        mns: List[FrozenSet[str]] = []
        # Level order: a strict subset comes first, and an alive node with an
        # alive strict subset has a minimal one below it (property (i)).
        for node in self._alive:
            if not any(smaller < node.sources for smaller in mns):
                mns.append(node.sources)
        return mns
