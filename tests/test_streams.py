"""Unit tests for the stream substrate: time, schema, tuples, sources, generators."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys

import pytest

from repro.context import ExecutionContext
from repro.core.signature import MNSSignature
from repro.experiments.config import LEFT_DEEP_DEFAULTS, scaled_workload
from repro.multi import generate_multi_query_workload
from repro.operators.state import OperatorState
from repro.streams.schema import Attribute, SourceSchema, StreamCatalog
from repro.streams.sources import (
    PeriodicArrivals,
    PoissonArrivals,
    ScriptedArrivals,
    StreamEvent,
    StreamSource,
    merge_sources,
)
from repro.streams.generators import (
    CliqueJoinWorkload,
    UniformValueGenerator,
    generate_clique_workload,
    source_names,
)
from repro.streams.time import SimulationClock, Window, minutes, seconds
from repro.streams.tuples import AtomicTuple, CompositeTuple, join_tuples


# --------------------------------------------------------------------------- time


def _at(ts: float) -> AtomicTuple:
    return AtomicTuple("A", ts, {"x": 1})


class TestWindow:
    def test_minutes_conversion(self):
        assert minutes(5) == 300.0
        assert seconds(42) == 42.0

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            Window(0)
        with pytest.raises(ValueError):
            Window(-1)

    # A tuple stamped ``ts`` is alive during ``[ts, ts + w)``; each boundary
    # is checked on the method that answers it for the engine.

    def test_joins_is_inclusive_at_exactly_one_window_and_symmetric(self):
        w = Window(10)
        a, b, c = _at(0.0), _at(10.0), _at(10.5)
        assert w.joins(a, b) and w.joins(b, a)
        assert not w.joins(a, c) and not w.joins(c, a)
        assert w.joins(b, c) and w.joins(a, a)
        # Joins take composites too, by their stamp: the newest component's.
        ab = join_tuples(a, AtomicTuple("B", 10.0, {"x": 1}))
        assert w.joins(ab, c) and not w.joins(ab, _at(20.5))

    def test_retains_until_one_retention_past_the_stamp(self):
        w = Window(10)
        t0, t3 = _at(0.0), _at(3.0)
        assert w.retains(t0, 0.0, w.length) and w.retains(t0, 5.0, w.length)
        assert w.retains(t0, 9.999, w.length)
        assert not w.retains(t0, 10.0, w.length)
        assert w.retains(t3, 12.999, w.length) and not w.retains(t3, 13.0, w.length)
        # A longer retention (the EXACT policy's ``depth * w``) moves the instant.
        assert w.retains(t0, 10.0, 2 * w.length) and not w.retains(t0, 20.0, 2 * w.length)
        # MNS signatures are judged by their own stamp.
        signature = MNSSignature.empty(ts=3.0)
        assert w.retains(signature, 12.5, w.length) and not w.retains(signature, 13.0, w.length)

    def test_purge_horizon_and_floor(self):
        w = Window(10)
        assert w.purge_horizon(25.0) == 15.0
        # The floor kept for suspended work stamped 3: everything from -7 on.
        assert w.purge_horizon(3.0) == -7.0

    def test_purge_removes_entries_strictly_below_the_horizon(self):
        w = Window(10)
        state = OperatorState("S", ExecutionContext(window=w))
        for ts in (2.0, 3.0, 4.0):
            state.insert(_at(ts))
        # At 13 the horizon is 3: the entry stamped 3 sits on it and stays.
        (gone,) = state.purge(w.purge_horizon(13.0))
        assert gone.ts == 2.0 and [e.ts for e in state] == [3.0, 4.0]
        (gone,) = state.purge(w.purge_horizon(13.5))
        assert gone.ts == 3.0 and [e.ts for e in state] == [4.0]

    def test_horizon_and_retention_keep_their_float_arithmetic(self):
        # At (ts, w, now) = (0.6, 0.1, 0.7) ``ts + w <= now`` holds but
        # ``ts < now - w`` does not: the state keeps the entry while the
        # blacklist's retention has already run out.  Rewriting either rule
        # in the other's arithmetic moves results.
        w = Window(0.1)
        state = OperatorState("S", ExecutionContext(window=w))
        state.insert(_at(0.6))
        assert state.purge(w.purge_horizon(0.7)) == [] and len(state) == 1
        assert not w.retains(_at(0.6), 0.7, w.length)
        assert w.joins(_at(0.6), _at(0.7)) and w.joins(_at(0.7), _at(0.6))


class TestSimulationClock:
    def test_advances_forward(self):
        clock = SimulationClock()
        assert clock.advance_to(1.5) == 1.5
        assert clock.advance_to(1.5) == 1.5
        assert clock.advance_to(2.0) == 2.0

    def test_rejects_backwards_movement(self):
        clock = SimulationClock()
        clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)

    def test_reset(self):
        clock = SimulationClock()
        clock.advance_to(5.0)
        clock.reset()
        assert clock.now == 0.0
        clock.advance_to(1.0)


# --------------------------------------------------------------------------- schema


class TestSchema:
    def test_attribute_validation(self):
        with pytest.raises(ValueError):
            Attribute("")
        with pytest.raises(ValueError):
            Attribute("x", size_bytes=0)

    def test_schema_of(self):
        schema = SourceSchema.of("A", ["x1", "x2"])
        assert schema.attribute_names == ("x1", "x2")
        assert schema.has_attribute("x1")
        assert not schema.has_attribute("zz")
        assert schema.attribute("x2").name == "x2"
        with pytest.raises(KeyError):
            schema.attribute("zz")

    def test_schema_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SourceSchema("A", (Attribute("x"), Attribute("x")))

    def test_tuple_size(self):
        schema = SourceSchema.of("A", ["x1", "x2"])
        assert schema.tuple_size_bytes == 16 + 16

    def test_catalog(self):
        catalog = StreamCatalog.from_schemas(
            [SourceSchema.of("A", ["x"]), SourceSchema.of("B", ["y"])]
        )
        assert len(catalog) == 2
        assert "A" in catalog and "C" not in catalog
        assert catalog.source_names == ["A", "B"]
        catalog.validate_reference("A", "x")
        with pytest.raises(KeyError):
            catalog.validate_reference("A", "y")
        with pytest.raises(KeyError):
            catalog.schema("C")

    def test_catalog_conflicting_registration(self):
        catalog = StreamCatalog()
        catalog.register(SourceSchema.of("A", ["x"]))
        catalog.register(SourceSchema.of("A", ["x"]))  # identical is fine
        with pytest.raises(ValueError):
            catalog.register(SourceSchema.of("A", ["y"]))


# --------------------------------------------------------------------------- tuples


class TestTuples:
    def test_atomic_tuple_basics(self):
        t = AtomicTuple("A", 3.0, {"x": 1, "y": 2}, seq=5)
        assert t.sources == ("A",)
        assert t.components == (t,)
        assert t.value("A", "x") == 1
        assert t.get("y") == 2
        assert t.get("zz", -1) == -1
        assert t.covers("A") and not t.covers("B")

    def test_atomic_tuple_errors(self):
        t = AtomicTuple("A", 3.0, {"x": 1})
        with pytest.raises(KeyError):
            t.value("B", "x")
        with pytest.raises(KeyError):
            t.value("A", "nope")
        with pytest.raises(ValueError):
            AtomicTuple("", 0.0, {})

    def test_atomic_equality_and_hash(self):
        a = AtomicTuple("A", 1.0, {"x": 1}, seq=0)
        b = AtomicTuple("A", 1.0, {"x": 1}, seq=0)
        c = AtomicTuple("A", 1.0, {"x": 2}, seq=0)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_hash_is_the_sorted_items_formula(self):
        t = AtomicTuple("A", 4.5, {"y": 2, "x": 1}, seq=3)
        assert hash(t) == hash(("A", 3, 4.5, (("x", 1), ("y", 2))))

    def test_insertion_order_does_not_matter(self):
        a = AtomicTuple("A", 1.0, {"x": 1, "y": 2}, seq=0)
        b = AtomicTuple("A", 1.0, {"y": 2, "x": 1}, seq=0)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "A#0(ts=1, x=1, y=2)"

    def test_attributes_are_stored_once(self):
        assert "_items" not in AtomicTuple.__slots__
        assert not hasattr(AtomicTuple("A", 1.0, {"x": 1}), "__dict__")

    def test_stream_event_is_slotted_and_frozen(self):
        event = StreamEvent(ts=1.0, source="A", tuple=AtomicTuple("A", 1.0, {"x": 1}))
        assert hasattr(StreamEvent, "__slots__")
        assert not hasattr(event, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.ts = 2.0

    def test_stream_event_pickles(self):
        event = StreamEvent(ts=1.5, source="A", tuple=AtomicTuple("A", 1.5, {"y": 2, "x": 1}, seq=4))
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event
        assert hash(clone.tuple) == hash(event.tuple)

    def test_composite_from_join(self):
        a = AtomicTuple("A", 1.0, {"x": 1})
        b = AtomicTuple("B", 2.0, {"x": 1})
        ab = join_tuples(a, b)
        assert isinstance(ab, CompositeTuple)
        assert ab.sources == ("A", "B")
        assert ab.ts == 2.0
        assert ab.component("A") is a
        assert ab.value("B", "x") == 1
        assert ab.covers("A") and not ab.covers("C")

    def test_composite_timestamp_is_max(self):
        a = AtomicTuple("A", 5.0, {"x": 1})
        b = AtomicTuple("B", 2.0, {"x": 1})
        assert join_tuples(a, b).ts == 5.0

    def test_join_rejects_overlap(self):
        a1 = AtomicTuple("A", 1.0, {"x": 1}, seq=0)
        a2 = AtomicTuple("A", 2.0, {"x": 2}, seq=1)
        with pytest.raises(ValueError):
            join_tuples(a1, a2)

    def test_composite_order_independent_equality(self):
        a = AtomicTuple("A", 1.0, {"x": 1})
        b = AtomicTuple("B", 2.0, {"x": 1})
        c = AtomicTuple("C", 3.0, {"y": 1})
        left_first = join_tuples(join_tuples(a, b), c)
        right_first = join_tuples(a, join_tuples(b, c))
        assert left_first == right_first
        assert hash(left_first) == hash(right_first)

    def test_contains_sub_tuple(self):
        a = AtomicTuple("A", 1.0, {"x": 1})
        b = AtomicTuple("B", 2.0, {"x": 1})
        ab = join_tuples(a, b)
        assert ab.contains(a)
        assert ab.contains(ab)
        other_a = AtomicTuple("A", 1.0, {"x": 9}, seq=7)
        assert not ab.contains(other_a)

    def test_composite_needs_two_components(self):
        with pytest.raises(ValueError):
            CompositeTuple([AtomicTuple("A", 1.0, {"x": 1})])


class TestAttributeLayout:
    """An atomic tuple holds its values; the names live in one interned
    layout per attribute set, shared across tuples, pickles and processes."""

    def test_tuples_of_one_attribute_set_share_one_layout(self):
        a = AtomicTuple("A", 1.0, {"x": 1, "y": 2}, seq=0)
        b = AtomicTuple("A", 2.0, {"y": 5, "x": 4}, seq=1)  # another order, same set
        c = AtomicTuple("A", 3.0, {"x": 1}, seq=2)
        assert a._layout is b._layout
        assert c._layout is not a._layout

    def test_a_pickled_tuple_shares_the_layout(self):
        a = AtomicTuple("A", 1.0, {"x": 1, "y": 2}, seq=3)
        event = StreamEvent(ts=1.0, source="A", tuple=a)
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and hash(clone) == hash(a) and clone._layout is a._layout
        assert pickle.loads(pickle.dumps(event)).tuple._layout is a._layout
        ab = join_tuples(a, AtomicTuple("B", 2.0, {"x": 1}))
        assert pickle.loads(pickle.dumps(ab)).component("A")._layout is a._layout

    def test_tuples_unpickled_in_another_process_share_the_layout(self):
        frame = pickle.dumps([
            StreamEvent(ts=1.0, source="A", tuple=AtomicTuple("A", 1.0, {"x": 1, "y": 2})),
            AtomicTuple("A", 2.0, {"y": 3, "x": 4}, seq=1),
        ])
        script = (
            "import pickle, sys\n"
            "from repro.streams.tuples import AtomicTuple\n"
            "event, tup = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = AtomicTuple('A', 3.0, {'x': 5, 'y': 6})\n"
            "assert event.tuple._layout is tup._layout is fresh._layout\n"
            "assert event.tuple.value('A', 'y') == 2 and tup.get('x') == 4\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script], input=frame, env=env, check=True)

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"x": 1, "y": 2, "z": 3}, {"z": 3, "x": 1, "y": 2}),
            ({"v": 1}, {"v": 1}),
            ({}, {}),
        ],
    )
    def test_equality_hash_and_repr_ignore_insertion_order(self, first, second):
        a = AtomicTuple("A", 1.0, first, seq=2)
        b = AtomicTuple("A", 1.0, second, seq=2)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert hash(a) == hash(("A", 2, 1.0, tuple(sorted(first.items()))))
        assert a.attrs == first and list(a.attrs) == sorted(first)

    def test_attrs_is_a_copy(self):
        a = AtomicTuple("A", 1.0, {"x": 1})
        a.attrs["x"] = 9
        assert a.get("x") == 1

    def test_unknown_attributes(self):
        a = AtomicTuple("A", 1.0, {"x": 1, "y": 2})
        assert a.get("nope") is None and a.get("nope", 7) == 7
        assert a.get("y", 7) == 2
        with pytest.raises(KeyError, match="no attribute 'nope'"):
            a.value("A", "nope")

    def test_tuples_of_different_attribute_sets_differ(self):
        assert AtomicTuple("A", 1.0, {"x": 1}) != AtomicTuple("A", 1.0, {"y": 1})

    def test_composite_lookups_by_source(self):
        a, b, c = (AtomicTuple(s, 1.0, {"x": 1}) for s in "ABC")
        ac = join_tuples(c, a)
        assert ac.sources == ("A", "C") and ac.component("C") is c
        assert ac.covers("A") and not ac.covers("B")
        with pytest.raises(KeyError, match="no component for 'B'"):
            ac.component("B")
        with pytest.raises(KeyError):
            ac.value("B", "x")
        assert ac.contains(a) and not ac.contains(b)
        assert ac.contains(pickle.loads(pickle.dumps(a)))  # equal, not identical
        assert not join_tuples(a, b).contains(ac)

    def test_composite_rejects_a_duplicate_source(self):
        a1 = AtomicTuple("A", 1.0, {"x": 1}, seq=0)
        a2 = AtomicTuple("A", 2.0, {"x": 2}, seq=1)
        b = AtomicTuple("B", 2.0, {"x": 2})
        with pytest.raises(ValueError, match="duplicate component for source 'A'"):
            CompositeTuple([a1, b, a2])

    def test_join_overlap_error_names_both_operands(self):
        a1 = AtomicTuple("A", 1.0, {"x": 1}, seq=0)
        b = AtomicTuple("B", 2.0, {"x": 2})
        a2 = AtomicTuple("A", 2.0, {"x": 2}, seq=1)
        with pytest.raises(ValueError, match="overlap on source 'A'") as caught:
            join_tuples(join_tuples(a1, b), a2)
        assert "a0b0" in str(caught.value) and "A#1" in str(caught.value)


# --------------------------------------------------------------------------- sources


class TestArrivalProcesses:
    def test_poisson_rate_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0)

    def test_poisson_rough_rate(self):
        import random

        arrivals = list(PoissonArrivals(2.0).timestamps(1000.0, random.Random(1)))
        assert 1600 < len(arrivals) < 2400
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 1000 for t in arrivals)

    def test_periodic(self):
        import random

        arrivals = list(PeriodicArrivals(2.0, offset=1.0).timestamps(10.0, random.Random(0)))
        assert arrivals == [1.0, 3.0, 5.0, 7.0, 9.0]
        with pytest.raises(ValueError):
            PeriodicArrivals(0)

    def test_scripted(self):
        import random

        arrivals = list(ScriptedArrivals([0.5, 2.0, 9.0]).timestamps(5.0, random.Random(0)))
        assert arrivals == [0.5, 2.0]
        with pytest.raises(ValueError):
            ScriptedArrivals([2.0, 1.0])


class TestStreamSource:
    def _source(self, seed: int = 1) -> StreamSource:
        return StreamSource(
            schema=SourceSchema.of("A", ["x"]),
            arrivals=PeriodicArrivals(1.0),
            value_generator=UniformValueGenerator(high=5),
            seed=seed,
        )

    def test_events_are_deterministic(self):
        s = self._source()
        first = s.events(10.0)
        second = s.events(10.0)
        assert [e.tuple.attrs for e in first] == [e.tuple.attrs for e in second]
        assert [e.ts for e in first] == [e.ts for e in second]

    def test_sequences_increase(self):
        events = self._source().events(5.0)
        assert [e.tuple.seq for e in events] == list(range(len(events)))

    def test_merge_sources_is_time_ordered(self):
        a = self._source(seed=1)
        b = StreamSource(
            schema=SourceSchema.of("B", ["y"]),
            arrivals=PeriodicArrivals(0.7),
            value_generator=UniformValueGenerator(high=5),
            seed=2,
        )
        merged = merge_sources([a, b], 10.0)
        assert [e.ts for e in merged] == sorted(e.ts for e in merged)
        assert {e.source for e in merged} == {"A", "B"}

    def test_incomplete_value_generator_is_rejected(self):
        source = StreamSource(
            schema=SourceSchema.of("A", ["x", "y"]),
            arrivals=PeriodicArrivals(1.0),
            value_generator=lambda rng, schema: {"x": 1},
            seed=0,
        )
        with pytest.raises(ValueError, match=r"attributes \['y'\]"):
            source.events(3.0)

    @pytest.mark.parametrize("names", [["y", "x", "z"], ["x"], []])
    def test_generated_tuples_are_the_constructor_s(self, names):
        # Values with exactly the schema's attributes skip the constructor
        # (schemas with one name or none go through it); either way what
        # comes out must be what the constructor builds.
        source = StreamSource(
            schema=SourceSchema.of("A", names),
            arrivals=ScriptedArrivals([1, 2.5, 4]),
            value_generator=UniformValueGenerator(high=9),
            seed=3,
        )
        for event in source.events(10.0):
            t = event.tuple
            built = AtomicTuple("A", event.ts, t.attrs, seq=t.seq, size_bytes=t.size_bytes)
            assert (t, hash(t), repr(t)) == (built, hash(built), repr(built))
            assert t._layout is built._layout and type(t.ts) is float

    def test_extra_attributes_are_kept(self):
        source = StreamSource(
            schema=SourceSchema.of("A", ["x"]),
            arrivals=PeriodicArrivals(1.0),
            value_generator=lambda rng, schema: {"x": 1, "note": 2},
            seed=0,
        )
        assert {e.tuple.get("note") for e in source.events(3.0)} == {2}


# --------------------------------------------------------------------------- generators


class TestValueGenerators:
    def test_uniform_range(self):
        import random

        gen = UniformValueGenerator(high=3)
        rng = random.Random(0)
        schema = SourceSchema.of("A", ["x", "y"])
        for _ in range(50):
            values = gen(rng, schema)
            assert set(values) == {"x", "y"}
            assert all(1 <= v <= 3 for v in values.values())
        with pytest.raises(ValueError):
            UniformValueGenerator(high=0)


class TestCliqueWorkload:
    def test_source_names(self):
        assert source_names(3) == ("A", "B", "C")
        assert len(source_names(30)) == 30
        with pytest.raises(ValueError):
            source_names(0)

    def test_pair_columns_count(self):
        wl = generate_clique_workload(4, 1.0, 60, 10, 10)
        assert len(wl.pair_columns) == 6
        assert wl.columns_of("A") == ("x1", "x2", "x3")
        assert wl.columns_of("D") == ("x3", "x5", "x6")

    def test_equi_join_conditions_match_paper_example(self):
        wl = generate_clique_workload(4, 1.0, 60, 10, 10)
        conditions = wl.equi_join_conditions()
        assert (("A", "x1"), ("B", "x1")) in conditions
        assert (("C", "x6"), ("D", "x6")) in conditions
        assert len(conditions) == 6

    def test_catalog_and_events(self):
        wl = generate_clique_workload(3, 2.0, 30, 5, 20, seed=3)
        catalog = wl.catalog()
        assert catalog.source_names == ["A", "B", "C"]
        events = wl.events()
        assert events == wl.events()  # deterministic replay
        assert all(e.ts < 20 for e in events)
        assert {e.source for e in events} == {"A", "B", "C"}

    def test_value_range_override(self):
        wl = generate_clique_workload(
            3, 1.0, 30, 5, 60, seed=1, value_range_overrides={"C": 500}
        )
        assert wl.max_value("C") == 500
        assert wl.max_value("A") == 5
        c_values = [
            v
            for e in wl.events()
            if e.source == "C"
            for v in e.tuple.attrs.values()
        ]
        assert max(c_values) > 5  # overridden range actually used

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_clique_workload(1, 1.0, 30, 5, 10)
        with pytest.raises(ValueError):
            generate_clique_workload(3, 1.0, 30, 0, 10)
        with pytest.raises(ValueError):
            CliqueJoinWorkload(3, 1.0, Window(30), 5, 10, value_range_overrides={"Z": 9})

    def test_describe_mentions_parameters(self):
        wl = generate_clique_workload(3, 1.0, 30, 5, 10, seed=7)
        text = wl.describe()
        assert "N=3" in text and "dmax=5" in text and "seed=7" in text


# --------------------------------------------------------------------------- pinned streams


def _stream_digest(events):
    """sha256 over every event's ``(repr(ts), source, seq, sorted attrs, size_bytes)``."""
    digest = hashlib.sha256()
    for event in events:
        t = event.tuple
        key = (repr(event.ts), event.source, t.seq, sorted(t.attrs.items()), t.size_bytes)
        digest.update(repr(key).encode())
    return len(events), digest.hexdigest()


#: Three generator calls and the digest of every event they produce.  A
#: generator change that moves one timestamp, value, sequence number or
#: modelled size shows here first.
PINNED_STREAMS = {
    # clique128's population (benchmarks/e2e), short.
    "multi_query": (
        lambda: generate_multi_query_workload(
            n_queries=128, n_sources=4, rate=1.0, window_seconds=30.0, dmax=400,
            duration=100, seed=7,
        ),
        (369, "4e1c3fdfc41d37c428379cb6caeb7557a6307fefacd15f27912fd34f4c6a3901"),
    ),
    # Table III left-deep default: its last source draws from 100 * dmax.
    "left_deep": (
        lambda: scaled_workload(LEFT_DEEP_DEFAULTS, scale=0.06, duration_windows=3.0, seed=7),
        (442, "ac16ad16612746ead08bb4e773a64b6450654a3475ca785bc6f9124bff8330d7"),
    ),
    "clique_rate_half": (
        lambda: generate_clique_workload(
            n_sources=3, rate=0.5, window_seconds=20, dmax=5, duration=120, seed=2
        ),
        (159, "7df8761ba87ee26a13454c17d51b6e118c4c0b8b266702ab0c825c0b35243c07"),
    ),
}


class TestPinnedStreams:
    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_generated_stream_is_pinned(self, name):
        make, expected = PINNED_STREAMS[name]
        assert _stream_digest(make().events()) == expected

    def test_digest_does_not_depend_on_the_hash_seed(self):
        script = (
            "import test_streams as t\n"
            "for name in sorted(t.PINNED_STREAMS):\n"
            "    make, expected = t.PINNED_STREAMS[name]\n"
            "    assert t._stream_digest(make().events()) == expected, name\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script], cwd=here, env=env, check=True)
