"""Synthetic workload generators, including the paper's clique-join workload.

Section VI of the paper evaluates JIT on synthetic data: ``N`` streaming
sources joined by a *clique* predicate (an equi-join condition between every
pair of sources), Poisson arrivals at rate λ per source, attribute values
drawn uniformly from ``[1..dmax]``, and a global sliding window ``w``.

:class:`CliqueJoinWorkload` captures one such configuration and can produce

* the :class:`~repro.streams.schema.StreamCatalog` for the ``N`` sources,
* the per-pair join columns (``x1 .. x_{N(N-1)/2}``, numbered as in the
  paper's 4-source example),
* the :class:`~repro.streams.sources.StreamSource` objects, and
* the merged, time-ordered event list fed to the execution engine.

For the left-deep experiments the paper feeds the *last* source with values
from ``[1 .. 100·dmax]`` "in order not to overload the system"; this is
supported through ``value_range_overrides``.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.streams.schema import SourceSchema, StreamCatalog
from repro.streams.sources import (
    PoissonArrivals,
    ScriptedArrivals,
    StreamEvent,
    StreamSource,
    merge_sources,
)
from repro.streams.time import Window

__all__ = [
    "UniformValueGenerator",
    "CliqueJoinWorkload",
    "generate_clique_workload",
    "source_names",
]


def source_names(n: int) -> Tuple[str, ...]:
    """Return the first ``n`` source names: ``A``, ``B``, ..., ``Z``, ``A1``...

    The paper never goes beyond 8 sources, but the generator supports more by
    suffixing a counter after ``Z``.
    """
    if n <= 0:
        raise ValueError(f"need at least one source, got {n}")
    letters = string.ascii_uppercase
    names: List[str] = []
    for i in range(n):
        if i < len(letters):
            names.append(letters[i])
        else:
            names.append(letters[i % len(letters)] + str(i // len(letters)))
    return tuple(names)


@dataclass(frozen=True)
class UniformValueGenerator:
    """Draw each attribute value uniformly from ``[low .. high]`` (inclusive).

    This is the paper's default value distribution with ``low=1`` and
    ``high=dmax``.
    """

    high: int
    low: int = 1

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"empty value range [{self.low}..{self.high}]")

    def __call__(self, rng: random.Random, schema: SourceSchema) -> Dict[str, int]:
        return {a.name: rng.randint(self.low, self.high) for a in schema.attributes}


@dataclass(frozen=True)
class CliqueJoinWorkload:
    """The synthetic workload of the paper's evaluation section.

    Parameters
    ----------
    n_sources:
        Number of streaming sources ``N``.
    rate:
        Average arrival rate λ in tuples/second per source.
    window:
        Global sliding window applied to every source.
    dmax:
        Maximum attribute value; values are uniform in ``[1..dmax]``.
    duration:
        Length of the generated stream in seconds of application time.
    seed:
        Master random seed; the workload is fully deterministic given a seed.
    value_range_overrides:
        Optional per-source override of the maximum value, e.g.
        ``{"D": 100 * dmax}`` for the paper's left-deep experiments.
    """

    n_sources: int
    rate: float
    window: Window
    dmax: int
    duration: float
    seed: int = 0
    value_range_overrides: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_sources < 2:
            raise ValueError("a join workload needs at least two sources")
        if self.dmax < 1:
            raise ValueError(f"dmax must be at least 1, got {self.dmax}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        unknown = set(self.value_range_overrides) - set(self.names)
        if unknown:
            raise ValueError(f"value_range_overrides for unknown sources: {sorted(unknown)}")

    # -- naming ------------------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        """The source names ``A``, ``B``, ... for this workload."""
        return source_names(self.n_sources)

    @property
    def pair_columns(self) -> Dict[FrozenSet[str], str]:
        """Map each unordered source pair to its shared join column.

        Pairs are numbered in the paper's order (``(A,B)=x1, (A,C)=x2, ...``).
        """
        columns: Dict[FrozenSet[str], str] = {}
        counter = 1
        names = self.names
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                columns[frozenset((names[i], names[j]))] = f"x{counter}"
                counter += 1
        return columns

    def columns_of(self, source: str) -> Tuple[str, ...]:
        """Join columns carried by ``source`` (one per other source)."""
        if source not in self.names:
            raise KeyError(f"unknown source {source!r}")
        return tuple(
            column
            for pair, column in sorted(self.pair_columns.items(), key=lambda kv: kv[1])
            if source in pair
        )

    # -- derived objects ----------------------------------------------------

    def catalog(self) -> StreamCatalog:
        """Build the stream catalog for all sources of this workload."""
        return StreamCatalog.from_schemas(
            SourceSchema.of(name, self.columns_of(name)) for name in self.names
        )

    def equi_join_conditions(self) -> List[Tuple[Tuple[str, str], Tuple[str, str]]]:
        """Return the clique predicate as ``((src1, col), (src2, col))`` pairs.

        The plan layer converts these into predicate objects; keeping plain
        tuples here avoids a dependency from the stream layer on operators.
        """
        conditions: List[Tuple[Tuple[str, str], Tuple[str, str]]] = []
        for pair, column in sorted(self.pair_columns.items(), key=lambda kv: kv[1]):
            left, right = sorted(pair)
            conditions.append(((left, column), (right, column)))
        return conditions

    def max_value(self, source: str) -> int:
        """The maximum attribute value for ``source`` (honouring overrides)."""
        return int(self.value_range_overrides.get(source, self.dmax))

    def sources(self) -> List[StreamSource]:
        """Build one :class:`StreamSource` per workload source."""
        catalog = self.catalog()
        out: List[StreamSource] = []
        for index, name in enumerate(self.names):
            generator = UniformValueGenerator(high=self.max_value(name))
            out.append(
                StreamSource(
                    schema=catalog.schema(name),
                    arrivals=PoissonArrivals(self.rate),
                    value_generator=generator,
                    seed=hash((self.seed, index)) & 0x7FFFFFFF,
                )
            )
        return out

    def events(self) -> List[StreamEvent]:
        """Generate the merged, time-ordered arrival sequence."""
        return merge_sources(self.sources(), self.duration)

    def describe(self) -> str:
        """One-line human-readable description used by the experiment reports."""
        return (
            f"clique-join N={self.n_sources} λ={self.rate}/s w={self.window.length:g}s "
            f"dmax={self.dmax} duration={self.duration:g}s seed={self.seed}"
        )


def generate_clique_workload(
    n_sources: int,
    rate: float,
    window_seconds: float,
    dmax: int,
    duration: float,
    seed: int = 0,
    value_range_overrides: Optional[Mapping[str, int]] = None,
) -> CliqueJoinWorkload:
    """Convenience constructor mirroring the paper's parameter names."""
    return CliqueJoinWorkload(
        n_sources=n_sources,
        rate=rate,
        window=Window(window_seconds),
        dmax=dmax,
        duration=duration,
        seed=seed,
        value_range_overrides=dict(value_range_overrides or {}),
    )
