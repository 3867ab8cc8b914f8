"""Tests for the serving front-end (repro.serve): buffers, policies, servers.

Covers the acceptance contract of the serving layer:

* with a bounded buffer of N and 10N pushed events, ``block`` loses zero
  events while ``drop_oldest`` / ``fair_shed`` shed exactly the accounted
  number (``shed_total`` matches what the caller can count);
* the ``block``-policy server is result-bit-identical to the raw engine;
* the asyncio adapter applies genuine backpressure (the buffer never
  exceeds its bound) and accounts identically;
* the admission hook rejects before buffering and is fully accounted.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.context import ExecutionContext
from repro.engine import ExecutionEngine
from repro.multi import QueryRegistry, ShardedEngine, generate_multi_query_workload
from repro.plans.builder import STRATEGY_JIT, STRATEGY_REF
from repro.serve import (
    OFFER_ACCEPTED,
    OFFER_BLOCKED,
    AsyncStreamServer,
    BoundedIngestionBuffer,
    DepthLimitAdmission,
    OverloadPolicy,
    StreamServer,
    accept_all,
    get_metric_value,
    parse_exposition,
)
from repro.streams.sources import StreamEvent
from repro.streams.time import Window
from repro.streams.tuples import AtomicTuple

_SEQ = iter(range(1, 1_000_000))


def _event(source: str, ts: float) -> StreamEvent:
    seq = next(_SEQ)
    return StreamEvent(ts=ts, source=source, tuple=AtomicTuple(source, ts, {"v": seq}, seq=seq))


def _workload():
    return generate_multi_query_workload(
        n_queries=6, n_sources=4, rate=0.8, window_seconds=20, dmax=4, duration=90, seed=7
    )


def _registry(workload):
    registry = QueryRegistry()
    for index, query in enumerate(workload.queries()):
        registry.register(query, strategy=STRATEGY_JIT if index % 2 else STRATEGY_REF)
    return registry


# ----------------------------------------------------------------- the buffer


class TestBoundedIngestionBuffer:
    def test_validates_capacity_and_policy(self):
        with pytest.raises(ValueError):
            BoundedIngestionBuffer(0)
        with pytest.raises(ValueError):
            BoundedIngestionBuffer(4, policy="nope")

    def test_fifo_order_preserved(self):
        buffer = BoundedIngestionBuffer(10)
        events = [_event("A", float(i)) for i in range(5)]
        for event in events:
            assert buffer.offer(event) == (OFFER_ACCEPTED, [])
        assert buffer.pop_batch(None) == events
        assert buffer.popped_total == 5

    def test_block_refuses_when_full_without_accounting_the_offer(self):
        buffer = BoundedIngestionBuffer(2, policy=OverloadPolicy.BLOCK)
        buffer.offer(_event("A", 1.0))
        buffer.offer(_event("A", 2.0))
        outcome, shed = buffer.offer(_event("A", 3.0))
        assert outcome == OFFER_BLOCKED
        assert shed == []
        assert buffer.shed_total == 0
        assert buffer.offered_total == 2  # the blocked offer is not counted
        assert len(buffer) == 2

    def test_drop_oldest_evicts_global_head(self):
        buffer = BoundedIngestionBuffer(3, policy=OverloadPolicy.DROP_OLDEST)
        first = _event("A", 1.0)
        rest = [_event("B", 2.0), _event("A", 3.0)]
        for event in [first, *rest]:
            buffer.offer(event)
        newcomer = _event("C", 4.0)
        outcome, shed = buffer.offer(newcomer)
        assert outcome == OFFER_ACCEPTED
        assert shed == [first]
        assert buffer.shed_by_source == {"A": 1}
        assert buffer.pop_batch(None) == rest + [newcomer]

    def test_fair_shed_targets_weighted_heaviest_source(self):
        # B has the longer backlog, but A's events each feed 5 standing
        # queries: weighted heaviness 2*5=10 beats 3*1=3, so A is shed.
        weights = {"A": 5, "B": 1}
        buffer = BoundedIngestionBuffer(
            5, policy=OverloadPolicy.FAIR_SHED, weight_fn=weights.get
        )
        a_events = [_event("A", 1.0), _event("A", 2.0)]
        for event in a_events + [_event("B", 3.0), _event("B", 4.0), _event("B", 5.0)]:
            buffer.offer(event)
        _, shed = buffer.offer(_event("C", 6.0))
        assert shed == [a_events[0]]  # A's *oldest*
        assert buffer.occupancy["A"] == 1

    def test_fair_shed_without_weights_targets_longest_backlog(self):
        buffer = BoundedIngestionBuffer(4, policy=OverloadPolicy.FAIR_SHED)
        b_first = _event("B", 2.0)
        for event in [_event("A", 1.0), b_first, _event("B", 3.0), _event("B", 4.0)]:
            buffer.offer(event)
        _, shed = buffer.offer(_event("A", 5.0))
        assert shed == [b_first]

    def test_occupancy_and_high_watermark(self):
        buffer = BoundedIngestionBuffer(8)
        for index in range(6):
            buffer.offer(_event("A" if index % 2 else "B", float(index)))
        assert buffer.occupancy == {"A": 3, "B": 3}
        assert buffer.high_watermark == 6
        buffer.pop_batch(4)
        assert sum(buffer.occupancy.values()) == 2
        assert buffer.high_watermark == 6  # lifetime maximum


# --------------------------------------------------------------- sync server


class TestStreamServerOverload:
    """Capacity N, 10N pushed events, no interleaved draining."""

    N = 16

    def _run(self, policy):
        workload = _workload()
        events = workload.events()
        assert len(events) >= 10 * self.N
        engine = ShardedEngine(_registry(workload), n_shards=2)
        server = StreamServer(engine, capacity=self.N, policy=policy)
        for event in events[: 10 * self.N]:
            assert server.submit(event)
        return server

    def test_block_loses_zero(self):
        server = self._run(OverloadPolicy.BLOCK)
        server.flush()
        report = server.report()
        assert report.shed == 0
        assert report.delivered == report.ingested == 10 * self.N
        assert server.buffer.high_watermark <= self.N
        assert report.backpressure_engagements >= 1

    @pytest.mark.parametrize(
        "policy", (OverloadPolicy.DROP_OLDEST, OverloadPolicy.FAIR_SHED)
    )
    def test_shedding_policies_account_exactly(self, policy):
        server = self._run(policy)
        # Nothing drained yet: exactly capacity events buffered, the rest shed.
        assert server.shed_total == 10 * self.N - self.N
        assert len(server.buffer) == self.N
        assert sum(server.buffer.shed_by_source.values()) == server.shed_total
        server.flush()
        report = server.report()
        assert report.delivered + report.shed == report.ingested == 10 * self.N
        # The exposition's shed counters agree with the buffer accounting.
        parsed = parse_exposition(server.exposition())
        exported = sum(parsed["serve_shed_total"].values())
        assert exported == report.shed
        for labels in parsed["serve_shed_total"]:
            assert ("policy", policy) in labels


class TestStreamServerEquivalence:
    def test_block_server_is_bit_identical_to_raw_engine(self):
        workload = _workload()
        events = workload.events()
        raw = ShardedEngine(_registry(workload), n_shards=3)
        for event in events:
            raw.submit(event)
        raw.flush()
        expected = {
            entry.query_id: raw.results_for(entry.query_id).multiset()
            for entry in _registry(workload)
        }
        sequences = {
            entry.query_id: list(raw.results_for(entry.query_id).results)
            for entry in _registry(workload)
        }

        engine = ShardedEngine(_registry(workload), n_shards=3)
        server = StreamServer(engine, capacity=8, policy=OverloadPolicy.BLOCK)
        for event in events:
            server.submit(event)
        server.flush()
        for query_id in expected:
            collector = server.results_for(query_id)
            assert collector.multiset() == expected[query_id]
            # Not just the multiset — the emission *sequence* is unchanged.
            assert list(collector.results) == sequences[query_id]


class TestAdmission:
    def test_accept_all_admits(self):
        assert accept_all(_event("A", 1.0), None)

    def test_custom_admission_rejects_before_buffering(self):
        workload = _workload()
        engine = ShardedEngine(_registry(workload), n_shards=1)
        banned = workload.events()[0].source

        def no_banned(event, server):
            return event.source != banned

        server = StreamServer(engine, capacity=64, admission=no_banned)
        events = workload.events()[:50]
        admitted = server.submit_many(events)
        expected_rejects = sum(1 for e in events if e.source == banned)
        assert expected_rejects > 0
        assert admitted == len(events) - expected_rejects
        assert server.rejected_total == expected_rejects
        assert banned not in server.buffer.occupancy
        parsed = parse_exposition(server.exposition())
        assert get_metric_value(parsed, "serve_rejected_total") == expected_rejects

    def test_depth_limit_admission_consults_server_depth(self):
        class FakeServer:
            def __init__(self, depth):
                self._depth = depth

            def shard_queue_depth_total(self):
                return self._depth

        policy = DepthLimitAdmission(max_total_depth=10)
        event = _event("A", 1.0)
        assert policy(event, FakeServer(10))  # at the limit still admits
        assert not policy(event, FakeServer(11))
        assert policy.rejected == 1

    def test_depth_limit_admission_scopes_to_sources(self):
        class FakeServer:
            def shard_queue_depth_total(self):
                return 999

        policy = DepthLimitAdmission(max_total_depth=1, sources=("B",))
        assert policy(_event("A", 1.0), FakeServer())  # unscoped source passes
        assert not policy(_event("B", 2.0), FakeServer())


class TestServerLifecycle:
    def _server(self, **kwargs):
        workload = _workload()
        engine = ShardedEngine(_registry(workload), n_shards=1)
        return StreamServer(engine, capacity=32, **kwargs), workload

    def test_submit_after_close_raises(self):
        server, workload = self._server()
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(workload.events()[0])

    def test_close_is_idempotent_and_flushes(self):
        server, workload = self._server()
        server.submit_many(workload.events()[:10])
        server.close()
        server.close()
        assert len(server.buffer) == 0
        assert server.report().delivered == 10

    def test_context_manager_closes(self):
        server, workload = self._server()
        with server as inside:
            inside.submit_many(workload.events()[:5])
        assert server.report().delivered == 5
        with pytest.raises(RuntimeError):
            server.submit(workload.events()[5])

    def test_rejects_invalid_drain_batch(self):
        workload = _workload()
        engine = ShardedEngine(_registry(workload), n_shards=1)
        with pytest.raises(ValueError):
            StreamServer(engine, drain_batch=0)

    @pytest.mark.parametrize("kind", ("object", "execution-engine"))
    def test_rejects_unservable_engine(self, kind):
        """Only a ShardedEngine is served; a single plan is a one-query
        registry on one shard, not a bare ExecutionEngine."""
        if kind == "object":
            engine = object()
        else:
            entry = next(iter(_registry(_workload())))
            context = ExecutionContext(window=Window(entry.query.window.length))
            engine = ExecutionEngine(entry.build_plan(), context)
        with pytest.raises(TypeError, match="ShardedEngine"):
            StreamServer(engine)

    def test_report_accounts_every_event(self):
        server, workload = self._server(policy=OverloadPolicy.DROP_OLDEST)
        events = workload.events()[:100]
        server.submit_many(events)
        report = server.report()
        assert report.ingested == 100
        assert report.delivered + report.shed + len(server.buffer) == 100


# -------------------------------------------------------------- async server


class TestAsyncStreamServer:
    def test_submit_before_start_raises(self):
        workload = _workload()
        engine = ShardedEngine(_registry(workload), n_shards=1)
        server = AsyncStreamServer(engine, capacity=8)

        async def main():
            with pytest.raises(RuntimeError):
                await server.submit(workload.events()[0])

        asyncio.run(main())

    def test_block_backpressure_bounds_buffer_and_loses_nothing(self):
        workload = _workload()
        events = workload.events()
        raw = ShardedEngine(_registry(workload), n_shards=2)
        for event in events:
            raw.submit(event)
        raw.flush()
        expected = {
            entry.query_id: raw.results_for(entry.query_id).multiset()
            for entry in _registry(workload)
        }

        engine = ShardedEngine(_registry(workload), n_shards=2)
        server = AsyncStreamServer(engine, capacity=8, drain_batch=4)

        async def main():
            async with server:
                for event in events:
                    assert await server.submit(event)
                    assert len(server.buffer) <= 8
                await server.flush()

        asyncio.run(main())
        report = server.report()
        assert report.shed == 0
        assert report.delivered == report.ingested == len(events)
        assert server.buffer.high_watermark <= 8
        for query_id, multiset in expected.items():
            assert server.results_for(query_id).multiset() == multiset

    @pytest.mark.parametrize(
        "policy", (OverloadPolicy.DROP_OLDEST, OverloadPolicy.FAIR_SHED)
    )
    def test_shedding_policies_account_exactly(self, policy):
        workload = _workload()
        events = workload.events()
        engine = ShardedEngine(_registry(workload), n_shards=2)
        server = AsyncStreamServer(engine, capacity=8, policy=policy)

        async def main():
            async with server:
                await server.submit_many(events)
                await server.flush()

        asyncio.run(main())
        report = server.report()
        assert report.delivered + report.shed == report.ingested == len(events)
        assert sum(server.buffer.shed_by_source.values()) == report.shed

    def test_close_flushes_buffered_events(self):
        workload = _workload()
        engine = ShardedEngine(_registry(workload), n_shards=1)
        server = AsyncStreamServer(engine, capacity=256)

        async def main():
            await server.start()
            for event in workload.events()[:20]:
                await server.submit(event)
            await server.close()

        asyncio.run(main())
        assert len(server.buffer) == 0
        assert server.report().delivered == 20
