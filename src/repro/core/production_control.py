"""Classification of MNSs for the producer's production control (Section IV-B).

The producer classifies every MNS in a feedback message by which of its
inputs the MNS's components come from:

* **Type I** — all components belong to one input (left or right); the
  producer blacklists super-tuples from that input's state and, if that input
  is itself fed by an operator, relays the feedback upstream unchanged.
* **Type II** — components span both inputs (e.g. ``ac`` at Op3 in Figure 5);
  the producer ignores it, as Section IV-B allows.
* **Empty (Ø)** — the whole output of the producer is non-demanded; the
  producer suspends wholesale (DOE behaviour).

The classification is a pure function over signatures so it can be
unit-tested independently of the join machinery.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.signature import MNSSignature

__all__ = [
    "SIDE_LEFT",
    "SIDE_RIGHT",
    "SIDE_BOTH",
    "SIDE_EMPTY",
    "classify_signature",
]

#: The MNS concerns only the producer's left input (Type I, left).
SIDE_LEFT = "left"
#: The MNS concerns only the producer's right input (Type I, right).
SIDE_RIGHT = "right"
#: The MNS spans both inputs (Type II).
SIDE_BOTH = "both"
#: The Ø MNS: the producer's entire output is non-demanded.
SIDE_EMPTY = "empty"


def classify_signature(
    signature: MNSSignature,
    left_sources: Iterable[str],
    right_sources: Iterable[str],
) -> str:
    """Classify ``signature`` relative to a producer's two input source sets.

    Raises
    ------
    ValueError
        If the signature covers sources that belong to neither input — the
        feedback was routed to the wrong producer.
    """
    left = frozenset(left_sources)
    right = frozenset(right_sources)
    covered = signature.source_set
    if not covered:
        return SIDE_EMPTY
    unknown = covered - left - right
    if unknown:
        raise ValueError(
            f"signature {signature} covers sources {sorted(unknown)} outside the "
            f"producer's inputs {sorted(left)} / {sorted(right)}"
        )
    in_left = bool(covered & left)
    in_right = bool(covered & right)
    if in_left and in_right:
        return SIDE_BOTH
    return SIDE_LEFT if in_left else SIDE_RIGHT
