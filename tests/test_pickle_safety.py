"""Pickle-safety audit for everything the process backend ships over pipes.

``drain_mode="process"`` serializes four classes of payload between the
parent and its shard workers: routed events, each an atomic tuple in an
``evt`` frame (parent → worker); ``host`` frames, each a shard's whole
ordered list of :class:`RegisteredQuery` entries pickled as one object, so
what the entries share (their catalog) travels once per frame (parent →
worker); per-query result tuples riding on acknowledgements (worker →
parent); and shard snapshots (``ShardEngine.snapshot()``:
:class:`MetricsReport`, cost counters, scheduler stats, progress) shipped
with every ``hosted``/``retired``/``flushed`` reply (worker → parent).  A
type that silently stops pickling (a lambda predicate, an unpicklable
cached attribute, a thread lock stored on a dataclass) would surface as a
runtime crash deep inside a worker; this audit pins the contract at the
type level so the break names itself here first.
"""

import pickle

import pytest

from repro.context import ExecutionContext
from repro.core.blacklist import Blacklist, SuspendedTuple
from repro.core.jit_join import JITJoinOperator
from repro.core.signature import MNSSignature
from repro.engine import run_workload
from repro.engine.results import result_key
from repro.multi import QueryRegistry, ShardedEngine
from repro.multi.workload import generate_multi_query_workload
from repro.operators.state import OperatorState
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF, build_xjoin_plan
from repro.streams.time import Window
from repro.trace import TraceContext

from helpers import make_tuple


@pytest.fixture(scope="module")
def workload():
    return generate_multi_query_workload(
        n_queries=8, n_sources=5, rate=0.8, window_seconds=20, dmax=4, duration=60, seed=3
    )


@pytest.fixture(scope="module")
def registry(workload):
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(
            query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF
        )
    return registry


@pytest.fixture(scope="module")
def sync_run(registry, workload):
    """One synchronous run whose artifacts the round-trips below audit."""
    with ShardedEngine(registry, n_shards=2) as engine:
        report = engine.run(workload.events())
        snapshots = [shard.snapshot() for shard in engine.shards]
    return report, snapshots


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_every_routed_event_roundtrips(workload):
    events = workload.events()
    assert events
    for event in events:
        clone = _roundtrip(event)
        assert clone == event and hash(clone) == hash(event)
        assert (clone.source, clone.ts, clone.seq, clone.attrs, clone.size_bytes) == (
            event.source, event.ts, event.seq, event.attrs, event.size_bytes
        )
        assert clone._layout is event._layout
    # Micro-batches ship as lists, exactly as the router splits them.
    batch = events[:32]
    assert _roundtrip(batch) == batch


def test_an_evt_frame_is_the_tuple_and_three_fields():
    # The first event of clique128's stream (benchmarks/e2e, seed 7), in the
    # frame ProcessShard.process_event sends.  123 bytes: the pickled tuple
    # (AtomicTuple.__reduce__'s state) plus the frame's tag, context and
    # watermark.  A wrapper around the tuple costs 13 bytes more here.
    first = generate_multi_query_workload(
        n_queries=128, n_sources=4, rate=1.0, window_seconds=30.0, dmax=400,
        duration=500.0, seed=7,
    ).events()[0]
    frame = pickle.dumps(("evt", first, None, first.ts))
    assert len(frame) == 123
    tag, tup, ctx, watermark = pickle.loads(frame)
    assert (tag, ctx, watermark) == ("evt", None, first.ts)
    assert type(tup) is type(first) and tup == first and tup._layout is first._layout


def test_every_registration_roundtrips(registry):
    for entry in registry:
        clone = _roundtrip(entry)
        assert clone.query_id == entry.query_id
        assert clone.strategy == entry.strategy
        assert clone.sources == entry.sources
        assert clone.describe() == entry.describe()
        # The canonical sub-plan signature must survive too — sharing on a
        # remote shard groups by it (including the cached copy a registry
        # lookup may already have materialized on the instance).
        assert clone.subplan_signature() == entry.subplan_signature()


def test_a_host_frame_roundtrips_with_one_shared_catalog(registry):
    entries = list(registry)
    frame = _roundtrip(("host", ("barrier", 1), entries))
    assert [clone.query_id for clone in frame[2]] == [entry.query_id for entry in entries]
    # The workload's queries share one catalog; so do their clones, which is
    # what keeps a 64-registration frame a fraction of 64 single ones.
    assert len({id(clone.query.catalog) for clone in frame[2]}) == 1
    assert len(pickle.dumps(entries)) < sum(len(pickle.dumps(e)) for e in entries) / 2


def test_every_result_tuple_roundtrips(sync_run):
    report, _snapshots = sync_run
    audited = 0
    for qreport in report.queries.values():
        for tup in qreport.results.results:
            clone = _roundtrip(tup)
            assert result_key(clone) == result_key(tup)
            assert clone.ts == tup.ts
            audited += 1
    assert audited == report.total_results
    assert audited > 0


def test_telemetry_snapshots_roundtrip(sync_run):
    _report, snapshots = sync_run
    for snapshot in snapshots:
        clone = _roundtrip(snapshot)
        metrics, metrics_clone = snapshot["metrics"], clone["metrics"]
        assert metrics_clone.cpu_units == metrics.cpu_units
        assert metrics_clone.peak_memory_bytes == metrics.peak_memory_bytes
        assert dict(metrics_clone.counters) == dict(metrics.counters)
        assert metrics_clone.results_produced == metrics.results_produced
        for key in snapshot:
            if key == "metrics":
                continue
            assert clone[key] == snapshot[key]


def test_trace_context_roundtrips():
    for ctx in (TraceContext(7, True), TraceContext(123456, False)):
        clone = _roundtrip(ctx)
        assert clone.trace_id == ctx.trace_id
        assert clone.sampled == ctx.sampled


def test_operator_carrying_a_used_detection_gate_roundtrips(workload):
    """Plans are built inside the workers, so an operator ships unattached; the
    gate it carries is plain data and must survive with its sums and its
    place in the rest/trial schedule."""
    query = next(q for q in workload.queries() if len(q.sources) >= 3)
    events = [e for e in workload.events() if e.source in query.sources]
    plan = build_xjoin_plan(query, strategy=STRATEGY_JIT, use_hash_index=True)
    run_workload(plan, events, query.window.length)
    used = next(
        gate
        for operator in plan.join_operators
        for gate in operator.gates.values()
        if gate.spent_units
    )
    assert used.spent_units > 0 and used.avoided_units >= 0
    fresh = build_xjoin_plan(query, strategy=STRATEGY_JIT).join_operators[-1]
    assert isinstance(fresh, JITJoinOperator)
    fresh.gates["left"] = used
    clone = _roundtrip(fresh)
    gate = clone.gates["left"]
    assert vars(gate) == vars(used)
    # Both continue the schedule identically from where it stood.
    window = query.window.length
    for step in range(1, 9):
        assert gate.open_at(70.0 + step * window, window) == used.open_at(
            70.0 + step * window, window
        )
        gate.spend(step)
        used.spend(step)


def test_slotted_blacklist_records_roundtrip():
    """``SuspendedTuple``, ``BlacklistEntry`` and ``StateEntry`` carry no
    ``__dict__``; a popped entry — what a resumption hands on — survives with
    its tuples, byte count, the order stamp each replay starts behind, and
    the moments and history the pair test reads, shared where they were
    shared: a state entry re-inserted from a record, and the record it is
    extracted into next, point at the same one."""
    context = ExecutionContext(window=Window(60.0))
    blacklist = Blacklist("bl", context)
    state = OperatorState("S_A", context)
    signature = MNSSignature.from_components(make_tuple("A", 1.0, y=9), ("A",), [("A", "y")])
    first = blacklist.add_suspended(
        signature, make_tuple("A", 1.0, y=9), joined_upto_seq=5, now=1.0, original_seq=2,
        joined_upto_order=8, created=1,
    )
    blacklist.pop_entry(signature)
    back = state.insert(first.tuple, seq=first.original_seq)
    back.came_from, first.ended = first, 3
    blacklist.add_suspended(
        signature, first.tuple, joined_upto_seq=9, now=2.0, original_seq=2, created=4,
        previous=back.came_from,
    )
    blacklist.add_suspended(
        signature, make_tuple("A", 2.0, y=9), joined_upto_seq=-1, now=2.0, original_seq=3,
        met_seqs=frozenset({4}), created=5,
    )
    blacklist.add_suspended(
        signature, make_tuple("A", 3.0, y=9), joined_upto_seq=-1, now=3.0, created=6
    )
    entry = blacklist.pop_entry(signature)
    for slotted in (entry, entry.suspended[0], back):
        assert not hasattr(slotted, "__dict__")
    clone, state_clone = _roundtrip((entry, back))
    assert clone == entry and state_clone == back
    assert (clone.size_bytes, clone.ts_ordered, clone.newest().ts) == (entry.size_bytes, True, 3.0)
    assert [s.joined_upto_order for s in clone.suspended] == [-1, -1, -1]
    assert [(s.created, s.ended) for s in clone.suspended] == [(4, None), (5, None), (6, None)]
    earlier = clone.suspended[0].previous
    assert (earlier.created, earlier.ended, earlier.joined_upto_order) == (1, 3, 8)
    assert earlier is state_clone.came_from
    assert clone.suspended[1].met(4, None, context.cost)
    # An opposite tuple parked from before the first suspension to after the
    # second: whether the two met is read off the cloned history.
    opposite = SuspendedTuple(
        tuple=make_tuple("B", 1.0, y=9), joined_upto_seq=3, suspended_at=0.5,
        original_seq=7, created=2, ended=5,
    )
    assert not clone.suspended[0].met(7, opposite, context.cost)
