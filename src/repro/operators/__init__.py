"""Operator substrate: states, predicates, joins and auxiliary operators.

These are the building blocks of execution plans — the DSMS layer the paper
assumes and that JIT (in :mod:`repro.core`) is built on:

* :mod:`repro.operators.predicates` -- join and selection predicates.
* :mod:`repro.operators.state` -- sliding-window operator states.
* :mod:`repro.operators.base` -- the operator/port/wiring framework.
* :mod:`repro.operators.queues` -- inter-operator queues (scheduled mode).
* :mod:`repro.operators.join` -- the REF binary window join.
* :mod:`repro.operators.selection`, :mod:`aggregate` -- unary operators
  used in Section V's extensions and the example applications.
"""

from repro.operators.base import (
    PORT_INPUT,
    PORT_LEFT,
    PORT_RIGHT,
    Operator,
    UnaryOperator,
)
from repro.operators.join import BinaryJoinOperator, opposite_port
from repro.operators.predicates import (
    AttributeCompare,
    AttributeRef,
    JoinCondition,
    JoinPredicate,
    SelectionPredicate,
)
from repro.operators.queues import InterOperatorQueue
from repro.operators.selection import SelectionOperator
from repro.operators.tee import TeeOperator, TeeSubscriber
from repro.operators.aggregate import AggregateFunction, WindowAggregateOperator
from repro.operators.state import OperatorState, StateEntry

__all__ = [
    "PORT_INPUT",
    "PORT_LEFT",
    "PORT_RIGHT",
    "Operator",
    "UnaryOperator",
    "BinaryJoinOperator",
    "opposite_port",
    "AttributeCompare",
    "AttributeRef",
    "JoinCondition",
    "JoinPredicate",
    "SelectionPredicate",
    "InterOperatorQueue",
    "SelectionOperator",
    "TeeOperator",
    "TeeSubscriber",
    "AggregateFunction",
    "WindowAggregateOperator",
    "OperatorState",
    "StateEntry",
]
