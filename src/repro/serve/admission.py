"""Admission control: the hook point in front of the ingestion buffer.

Overload policies decide what to do once the buffer is full; *admission*
decides whether an event should enter the buffer at all.  The serving layer
calls the installed :data:`AdmissionPolicy` first on every submit, counts
rejections explicitly (``serve_rejected_total``), and never delivers a
rejected event — the cheap place to say no.

The hook is deliberately minimal — ``(event, server) -> bool`` — and the
server passes *itself*, so a policy can consult live telemetry (queue
depths, latency percentiles, shed totals) when deciding.  That is the
hook-point future cost-based policies plug into (weigh queue lengths
against pending resumptions).
"""

from __future__ import annotations

from typing import Callable

from repro.streams.tuples import AtomicTuple

__all__ = ["AdmissionPolicy", "accept_all"]

#: ``(event, server) -> admit?``.  The server is passed untyped to avoid an
#: import cycle with :mod:`repro.serve.server`.
AdmissionPolicy = Callable[[AtomicTuple, object], bool]


def accept_all(event: AtomicTuple, server: object) -> bool:
    """The default admission policy: admit everything."""
    return True
