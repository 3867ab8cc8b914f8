"""Feedback messages exchanged between consumer and producer operators.

Section III-A introduces two messages — ``<suspend, Π>`` and ``<resume, Π>``
— each carrying a set of MNSs.  They are the only two kinds: Section IV-B's
``mark-result`` / ``unmark-result`` serve Type II MNSs, which a producer may
ignore and every producer here does.  Section V adds a flavour of suspension:
a consumer whose demand can never change (a selection) issues *permanent*
suspensions, which let the producer delete the affected tuples instead of
blacklisting them.

A :class:`Feedback` is an immutable value object; the producer-side logic in
:mod:`repro.core.jit_join` interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.core.signature import MNSSignature

__all__ = ["FeedbackKind", "Feedback"]


class FeedbackKind:
    """The two feedback commands of the paper."""

    SUSPEND = "suspend"
    RESUME = "resume"

    ALL = (SUSPEND, RESUME)


@dataclass(frozen=True)
class Feedback:
    """A feedback message ``<command, Π>``.

    Parameters
    ----------
    kind:
        One of :class:`FeedbackKind`'s constants.
    signatures:
        The MNS signatures the message refers to (the paper's Π).
    permanent:
        True for suspensions that will never be resumed (selection
        consumers, Section V); the producer may then discard the affected
        tuples entirely.
    """

    kind: str
    signatures: Tuple[MNSSignature, ...]
    permanent: bool = False
    #: The detection gate of the consumer port that detected the MNSs
    #: (suspensions only; bookkeeping, excluded from equality).  Propagation
    #: copies it, so it reaches every producer that acts on it.
    origin: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FeedbackKind.ALL:
            raise ValueError(
                f"unknown feedback kind {self.kind!r}; expected one of {FeedbackKind.ALL}"
            )
        if not self.signatures:
            raise ValueError("a feedback message must carry at least one MNS signature")
        if self.permanent and self.kind != FeedbackKind.SUSPEND:
            raise ValueError("only suspension feedback can be permanent")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def suspend(
        cls,
        signatures: Iterable[MNSSignature],
        permanent: bool = False,
        origin: Optional[object] = None,
    ) -> "Feedback":
        """Build a ``<suspend, Π>`` message."""
        return cls(FeedbackKind.SUSPEND, tuple(signatures), permanent=permanent, origin=origin)

    @classmethod
    def resume(cls, signatures: Iterable[MNSSignature]) -> "Feedback":
        """Build a ``<resume, Π>`` message."""
        return cls(FeedbackKind.RESUME, tuple(signatures))

    def __str__(self) -> str:
        sigs = ", ".join(str(s) for s in self.signatures)
        flag = ", permanent" if self.permanent else ""
        return f"<{self.kind}, {{{sigs}}}{flag}>"
