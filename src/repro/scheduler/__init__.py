"""Operator scheduling for the queued setting (Section III-B).

When inter-operator queues are present, the DSMS must decide which operator
runs next.  The paper's JIT scheduling policies boil down to: handle feedback
immediately (which this library does by construction — feedback is delivered
synchronously), give a producer that is answering a resumption a higher
priority than its consumer, and give an operator handling a suspension a
higher priority than its upstream operators.

:class:`~repro.scheduler.scheduler.OperatorScheduler` is the interface: the
shard pushes ready-set deltas (``on_ready`` / ``on_unready`` /
``on_head_change``) and asks ``pop_next()``, O(log ready) per step.  The
two concrete policies — ``fifo`` and the paper's ``jit_aware`` — live in
:mod:`repro.scheduler.policies`.
"""

from repro.scheduler.scheduler import OperatorScheduler, ReadyInput
from repro.scheduler.policies import (
    FIFOScheduler,
    JITAwareScheduler,
    build_scheduler,
)

__all__ = [
    "OperatorScheduler",
    "ReadyInput",
    "FIFOScheduler",
    "JITAwareScheduler",
    "build_scheduler",
]
