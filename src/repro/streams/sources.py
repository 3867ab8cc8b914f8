"""Streaming sources and arrival processes.

A :class:`StreamSource` turns an *arrival process* (when do tuples arrive?)
and a *value generator* (what do they contain?) into a deterministic,
replayable sequence of :class:`~repro.streams.tuples.AtomicTuple` objects.
Determinism matters: the same workload must be fed to the JIT, REF and DOE
executions so that their outputs and costs are directly comparable, exactly
as the paper runs every plan "twice ... with and without JIT" (Section VI).

Arrival processes available:

* :class:`PoissonArrivals` -- exponential inter-arrival times with rate λ
  tuples/second, the model used in the paper's evaluation.
* :class:`PeriodicArrivals` -- fixed inter-arrival gap, useful for tests.
* :class:`ScriptedArrivals` -- explicit list of timestamps, used to replay
  the paper's worked examples (Table I, Figure 5c).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.streams.schema import SourceSchema
from repro.streams.tuples import AtomicTuple, _laid_out, _layout, _restore_atomic

__all__ = [
    "StreamEvent",
    "ArrivalProcess",
    "PoissonArrivals",
    "PeriodicArrivals",
    "ScriptedArrivals",
    "StreamSource",
    "merge_sources",
]


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One arrival: a tuple plus the source it came from.

    The engine consumes a globally time-ordered sequence of events produced
    by :func:`merge_sources`.
    """

    ts: float
    source: str
    tuple: AtomicTuple

    def __post_init__(self) -> None:
        if self.tuple.ts != self.ts:
            raise ValueError(
                f"event timestamp {self.ts} differs from tuple timestamp {self.tuple.ts}"
            )

    def __reduce__(self) -> tuple:
        # The tuple's pickled state (``AtomicTuple.__reduce__``'s) rides
        # inline, so pickling an event makes one Python call, not two.
        t = self.tuple
        state = (t.source, t.ts, t.seq, tuple(t._layout), t._values, t.size_bytes)
        return _restore_event, (self.ts, self.source, state)


def _restore_event(ts: float, source: str, state: tuple) -> StreamEvent:
    """Rebuild a pickled :class:`StreamEvent`."""
    return StreamEvent(ts, source, _restore_atomic(*state))


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
        now = 0.0
        while True:
            now += rng.expovariate(self.rate)
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
        Callable ``(rng, schema) -> dict`` producing the attribute values of
        one tuple.  Workload generators in :mod:`repro.streams.generators`
        provide ready-made ones.
    seed:
        Seed for this source's private random generator; two sources with
        different names and the same seed still produce different streams
        because the name is mixed into the seed.
    """

    def __init__(
        self,
        schema: SourceSchema,
        arrivals: ArrivalProcess,
        value_generator: Callable[[random.Random, SourceSchema], Mapping[str, object]],
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

    def events(self, duration: float) -> List[StreamEvent]:
        """Generate this source's arrivals for ``duration`` seconds.

        The result is deterministic for a given ``(seed, schema, arrivals,
        value_generator)`` combination and is recomputed identically on every
        call, so the same source object can be replayed for multiple
        execution strategies.
        """
        rng = self._rng()
        schema, name = self.schema, self.name
        attribute_names = schema.attribute_names
        size_bytes = schema.tuple_size_bytes
        # Values carrying exactly the schema's attributes (what every shipped
        # generator draws) are read straight into the schema's layout.  With
        # one name ``itemgetter`` returns a bare value, so such schemas (and
        # attribute-less ones) go through the constructor.
        names = tuple(sorted(attribute_names))
        layout = _layout(names)
        exact = layout.keys()
        read = itemgetter(*names) if len(names) > 1 else None
        out: List[StreamEvent] = []
        seq = 0
        for ts in self.arrivals.timestamps(duration, rng):
            values = self.value_generator(rng, schema)
            if read is not None and values.keys() == exact:
                tup = _laid_out(name, float(ts), seq, layout, read(values), size_bytes)
            else:
                missing = [a for a in attribute_names if a not in values]
                if missing:
                    raise ValueError(
                        f"value generator for source {name!r} did not produce "
                        f"attributes {missing}"
                    )
                tup = AtomicTuple(name, ts, values, seq=seq, size_bytes=size_bytes)
            out.append(StreamEvent(ts, name, tup))
            seq += 1
        return out


def merge_sources(
    sources: Iterable[StreamSource], duration: float
) -> List[StreamEvent]:
    """Merge the arrivals of several sources into one time-ordered event list.

    Ties on timestamps are broken by source name so that replays are fully
    deterministic.
    """
    events: List[StreamEvent] = []
    for source in sources:
        events.extend(source.events(duration))
    events.sort(key=attrgetter("ts", "source", "tuple.seq"))
    return events
