"""Feedback messages exchanged between consumer and producer operators.

Section III-A introduces two messages — ``<suspend, Π>`` and ``<resume, Π>``
— each carrying a set of MNSs; Section IV-B adds ``mark-result`` and
``unmark-result`` for Type II MNSs, where the producer should *mark* (rather
than stop producing) super-tuples of the decomposed parts.  Section V adds a
fifth flavour implicitly: consumers whose demand can never change (selections,
static joins) issue *permanent* suspensions, which let the producer delete the
affected tuples instead of blacklisting them.

A :class:`Feedback` is an immutable value object; the producer-side logic in
:mod:`repro.core.jit_join` interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.core.signature import MNSSignature

__all__ = ["FeedbackKind", "Feedback"]


class FeedbackKind:
    """The four feedback commands of the paper."""

    SUSPEND = "suspend"
    RESUME = "resume"
    MARK = "mark"
    UNMARK = "unmark"

    ALL = (SUSPEND, RESUME, MARK, UNMARK)


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
        True for suspensions that will never be resumed (selection / static
        join consumers, Section V); the producer may then discard the
        affected tuples entirely.
    """

    kind: str
    signatures: Tuple[MNSSignature, ...]
    permanent: bool = False
    #: The detection gate of the consumer port that detected the MNSs
    #: (suspensions only; bookkeeping, excluded from equality).  Relays pass
    #: the message on unchanged, so it reaches every producer that acts on it.
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

    @classmethod
    def mark(cls, signatures: Iterable[MNSSignature]) -> "Feedback":
        """Build a ``<mark-results, Π>`` message (Type II suspension half)."""
        return cls(FeedbackKind.MARK, tuple(signatures))

    @classmethod
    def unmark(cls, signatures: Iterable[MNSSignature]) -> "Feedback":
        """Build an ``<unmark-results, Π>`` message (Type II resumption half)."""
        return cls(FeedbackKind.UNMARK, tuple(signatures))

    # -- helpers --------------------------------------------------------------------

    @property
    def is_suspension(self) -> bool:
        """True for suspend and mark messages (production-restricting)."""
        return self.kind in (FeedbackKind.SUSPEND, FeedbackKind.MARK)

    @property
    def is_resumption(self) -> bool:
        """True for resume and unmark messages (production-restoring)."""
        return self.kind in (FeedbackKind.RESUME, FeedbackKind.UNMARK)

    def single(self) -> MNSSignature:
        """Return the only signature of a single-MNS message.

        Producer-side routines handle each MNS independently (Section IV-B);
        :meth:`split` turns a multi-MNS message into single-MNS ones, and this
        accessor documents call sites that rely on that normalization.
        """
        if len(self.signatures) != 1:
            raise ValueError(f"expected a single-MNS feedback, got {len(self.signatures)}")
        return self.signatures[0]

    def split(self) -> Tuple["Feedback", ...]:
        """Split a multi-MNS message into one message per MNS."""
        if len(self.signatures) == 1:
            return (self,)
        return tuple(
            Feedback(self.kind, (sig,), permanent=self.permanent, origin=self.origin)
            for sig in self.signatures
        )

    def __str__(self) -> str:
        sigs = ", ".join(str(s) for s in self.signatures)
        flag = ", permanent" if self.permanent else ""
        return f"<{self.kind}, {{{sigs}}}{flag}>"
