"""Streaming sources and arrival processes.

A :class:`StreamSource` turns an *arrival process* (when do tuples arrive?)
and a *value generator* (what do they contain?) into a deterministic,
replayable sequence of :class:`~repro.streams.tuples.AtomicTuple` objects.
An arrival is its tuple, with nothing around it: the tuple already carries
its source and timestamp (Section II), and every ingestion path (engines,
shards, the serving layer, a process worker's pipe) takes it as it is.
Determinism matters: the same workload must be fed to the JIT, REF and DOE
executions so that their outputs and costs are directly comparable, exactly
as the paper runs every plan "twice ... with and without JIT" (Section VI).

Arrival processes available:

* :class:`PoissonArrivals` -- exponential inter-arrival times with rate λ
  tuples/second, the model used in the paper's evaluation.
* :class:`PeriodicArrivals` -- fixed inter-arrival gap, useful for tests.
* :class:`ScriptedArrivals` -- explicit list of timestamps, used to replay
  the paper's worked examples (Table I, Figure 5c).

Generation runs at the cost of its draws.  :class:`PoissonArrivals` computes
each gap as ``-log(1.0 - random()) / rate``, the body of
``Random.expovariate``.  A value generator with a ``drawer`` (the uniform
one of :mod:`repro.streams.generators`) hands the source one call per event
that draws the event's values in declaration order, each through
``_randbelow``'s ``getrandbits(k)``-until-below-``n`` loop inlined, and
returns them in sorted-name order, ready for the layout.  Both consume the
random generator exactly as ``expovariate`` and ``randint`` do, so a stream
is bit-identical to one drawn through them (``tests/helpers.py``'s
``reference_events`` keeps that code as the oracle).  Any other value
generator returns a dict, which goes through the ``AtomicTuple``
constructor and its check that every attribute is there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Mapping, Sequence, Union

from repro.streams.schema import SourceSchema
from repro.streams.tuples import AtomicTuple, _laid_out, _layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.streams.generators import UniformValueGenerator

#: A dict-returning value generator: ``(rng, schema) -> {name: value}``.
ValueGenerator = Callable[[random.Random, SourceSchema], Mapping[str, object]]

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "PeriodicArrivals",
    "ScriptedArrivals",
    "StreamSource",
    "merge_sources",
]


class ArrivalProcess:
    """Base class for arrival-time generators.

    Subclasses yield strictly non-decreasing timestamps starting after
    ``start`` and stopping at or before ``duration`` seconds.
    """

    def timestamps(self, duration: float, rng: random.Random) -> Iterator[float]:
        """Yield arrival timestamps within ``[0, duration)``."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Poisson arrivals with ``rate`` tuples per second (paper's λ)."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.rate}")

    def timestamps(self, duration: float, rng: random.Random) -> Iterator[float]:
        # ``rng.expovariate(rate)``, inlined: the same draw, the same float.
        uniform, rate = rng.random, self.rate
        now = 0.0
        while True:
            now += -log(1.0 - uniform()) / rate
            if now >= duration:
                return
            yield now


@dataclass(frozen=True)
class PeriodicArrivals(ArrivalProcess):
    """Deterministic arrivals every ``period`` seconds, optionally offset."""

    period: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")

    def timestamps(self, duration: float, rng: random.Random) -> Iterator[float]:
        now = self.offset
        while now < duration:
            yield now
            now += self.period


@dataclass(frozen=True)
class ScriptedArrivals(ArrivalProcess):
    """Arrivals at an explicit, pre-sorted list of timestamps."""

    times: Sequence[float]

    def __post_init__(self) -> None:
        if list(self.times) != sorted(self.times):
            raise ValueError("scripted arrival times must be sorted")

    def timestamps(self, duration: float, rng: random.Random) -> Iterator[float]:
        for ts in self.times:
            if ts < duration:
                yield ts


class StreamSource:
    """A named stream producing :class:`AtomicTuple` arrivals.

    Parameters
    ----------
    schema:
        The source's schema; generated tuples carry exactly its attributes.
    arrivals:
        Arrival process determining *when* tuples appear.
    value_generator:
        What draws the attribute values of one tuple: a callable ``(rng,
        schema) -> dict``, or an object whose ``drawer(rng, schema)``
        returns a zero-argument function drawing them as a tuple in
        sorted-name order, as
        :class:`~repro.streams.generators.UniformValueGenerator` does (see
        the module docstring).
    seed:
        Seed for this source's private random generator; two sources with
        different names and the same seed still produce different streams
        because the name is mixed into the seed.
    """

    def __init__(
        self,
        schema: SourceSchema,
        arrivals: ArrivalProcess,
        value_generator: Union[ValueGenerator, "UniformValueGenerator"],
        seed: int = 0,
    ) -> None:
        self.schema = schema
        self.arrivals = arrivals
        self.value_generator = value_generator
        self.seed = seed

    @property
    def name(self) -> str:
        """The source name (the schema's name)."""
        return self.schema.name

    def _rng(self) -> random.Random:
        # Mix the source name into the seed so that two sources sharing a
        # numeric seed still produce independent streams.
        return random.Random(f"{self.seed}:{self.schema.name}")

    def events(self, duration: float) -> List[AtomicTuple]:
        """Generate this source's arrivals for ``duration`` seconds.

        The result is deterministic for a given ``(seed, schema, arrivals,
        value_generator)`` combination and is recomputed identically on every
        call, so the same source object can be replayed for multiple
        execution strategies.
        """
        rng = self._rng()
        schema, name = self.schema, self.name
        size_bytes = schema.tuple_size_bytes
        timestamps = self.arrivals.timestamps(duration, rng)
        out: List[AtomicTuple] = []
        drawer = getattr(self.value_generator, "drawer", None)
        if drawer is not None:
            draw = drawer(rng, schema)
            layout = _layout(tuple(sorted(schema.attribute_names)))
            for seq, ts in enumerate(timestamps):
                out.append(_laid_out(name, float(ts), seq, layout, draw(), size_bytes))
            return out
        attribute_names = schema.attribute_names
        for seq, ts in enumerate(timestamps):
            values = self.value_generator(rng, schema)
            missing = [a for a in attribute_names if a not in values]
            if missing:
                raise ValueError(
                    f"value generator for source {name!r} did not produce "
                    f"attributes {missing}"
                )
            out.append(AtomicTuple(name, ts, values, seq=seq, size_bytes=size_bytes))
        return out


_ts_of = attrgetter("ts")


def merge_sources(
    sources: Iterable[StreamSource], duration: float
) -> List[AtomicTuple]:
    """Merge the arrivals of several sources into one time-ordered tuple list.

    Ties on timestamps are broken by source name, then by arrival sequence,
    so that replays are fully deterministic: the order is that of the key
    ``(ts, source, seq)``.  The sources' lists are concatenated in name
    order and sorted stably on the timestamp alone, which gives that order
    without a key tuple per arrival, since each list is in ``seq`` order.
    The source names must therefore be distinct.
    """
    by_name = sorted(sources, key=attrgetter("name"))
    events: List[AtomicTuple] = []
    for index, source in enumerate(by_name):
        if index and source.name == by_name[index - 1].name:
            raise ValueError(f"two sources are named {source.name!r}")
        events.extend(source.events(duration))
    events.sort(key=_ts_of)
    return events
