"""Stream substrate: tuples, schemas, time, sources and workload generators.

This sub-package provides everything the operator layer needs to talk about
streaming data:

* :mod:`repro.streams.tuples` -- atomic and composite stream tuples.
* :mod:`repro.streams.schema` -- per-source attribute schemas and catalogs.
* :mod:`repro.streams.time` -- timestamps, sliding windows and the simulated
  clock used by the execution engine.
* :mod:`repro.streams.sources` -- arrival processes (Poisson, periodic,
  scripted) and the :class:`~repro.streams.sources.StreamSource` abstraction.
* :mod:`repro.streams.generators` -- synthetic workload generators, including
  the clique-join workload used throughout the paper's evaluation section.
"""

from repro.streams.schema import Attribute, SourceSchema, StreamCatalog
from repro.streams.time import SimulationClock, Window
from repro.streams.tuples import AtomicTuple, CompositeTuple, StreamTuple, join_tuples
from repro.streams.sources import (
    ArrivalProcess,
    PeriodicArrivals,
    PoissonArrivals,
    ScriptedArrivals,
    StreamSource,
    merge_sources,
)
from repro.streams.generators import (
    CliqueJoinWorkload,
    UniformValueGenerator,
    generate_clique_workload,
)

__all__ = [
    "Attribute",
    "SourceSchema",
    "StreamCatalog",
    "SimulationClock",
    "Window",
    "AtomicTuple",
    "CompositeTuple",
    "StreamTuple",
    "join_tuples",
    "ArrivalProcess",
    "PeriodicArrivals",
    "PoissonArrivals",
    "ScriptedArrivals",
    "StreamSource",
    "merge_sources",
    "CliqueJoinWorkload",
    "UniformValueGenerator",
    "generate_clique_workload",
]
